package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbgc"
	"dbgc/internal/store"
)

func TestDriveIsSeeded(t *testing.T) {
	a, err := drive(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := drive(5, 1)
	c, _ := drive(6, 1)
	if len(a) != 6 {
		t.Fatalf("one pass gave %d frames, want 6", len(a))
	}
	if inputsHash(a) != inputsHash(b) {
		t.Error("the same seed gave different inputs")
	}
	if inputsHash(a) == inputsHash(c) {
		t.Error("different seeds gave identical inputs")
	}
	if queryBoxes(5, 0) == nil || queryBoxes(5, 0)[0] != queryBoxes(5, 0)[0] || queryBoxes(5, 0)[0] == queryBoxes(6, 0)[0] {
		t.Error("query boxes are not seeded")
	}
}

// testFrames returns the first drive frame of seed 1 and its archive entry.
func testFrames(t *testing.T) (frame, archived) {
	t.Helper()
	frames, err := drive(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := buildArchive(1, frames[:1])
	if err != nil {
		t.Fatal(err)
	}
	return frames[0], arch[0]
}

func flipByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x20
	return out
}

func TestEncodeGate(t *testing.T) {
	f, _ := testFrames(t)
	data, st, err := dbgc.Compress(f.Points, dbgc.DefaultOptions(q))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCompressed(f.Points, data, st.Mapping); err != nil {
		t.Fatalf("intact frame failed the gate: %v", err)
	}
	if err := verifyCompressed(f.Points, flipByte(data), st.Mapping); err == nil {
		t.Error("a flipped byte passed the encode gate")
	}
	bad := append([]int32(nil), st.Mapping...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if err := verifyCompressed(f.Points, data, bad); err == nil {
		t.Error("a wrong mapping passed the encode gate")
	}
}

func TestReadGates(t *testing.T) {
	_, a := testFrames(t)
	pc, err := dbgc.DecompressWith(a.data, dbgc.DecompressOptions{Limits: dbgc.DefaultDecodeLimits()})
	if err := checkDecode(&a, pc, err); err != nil {
		t.Fatalf("intact frame failed the decode gate: %v", err)
	}
	secPts, _, err := decodeSections(a.data)
	if err != nil || !samePoints(secPts, pc) {
		t.Fatalf("section decoders disagree with DecompressWith (err %v)", err)
	}
	near, far := false, false
	for b, box := range a.boxes {
		got, err := dbgc.DecompressRegion(a.data, box)
		if err := checkRegion(&a, b, got, err); err != nil {
			t.Fatalf("intact frame failed the region gate: %v", err)
		}
		near = near || a.inCount[b] > len(pc)/4
		far = far || a.inCount[b] < len(pc)/100
	}
	if !near || !far {
		t.Errorf("query boxes hold %v of %d points; want a near-sensor and a far-field box", a.inCount, len(pc))
	}

	bad := a
	bad.data = flipByte(a.data)
	pc, err = dbgc.DecompressWith(bad.data, dbgc.DecompressOptions{Limits: dbgc.DefaultDecodeLimits()})
	if checkDecode(&bad, pc, err) == nil {
		t.Error("a flipped byte passed the decode gate")
	}
	for b, box := range bad.boxes {
		got, err := dbgc.DecompressRegion(bad.data, box)
		if checkRegion(&bad, b, got, err) == nil {
			t.Errorf("a flipped byte passed the region gate on box %d", b)
		}
	}
	if _, _, err := decodeSections(bad.data); err == nil {
		t.Error("the section decoders accepted a flipped byte")
	}
}

// dropRecord rewrites a store file without one sequence number.
func dropRecord(t *testing.T, path string, seq uint64) {
	t.Helper()
	src, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := store.Open(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range src.Seqs() {
		if s == seq {
			continue
		}
		p, kind, err := src.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Put(s, kind, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
}

func TestIngestGateDetectsDeletedFollowerRecord(t *testing.T) {
	dir := t.TempDir()
	payloads := [][]byte{[]byte("frame one"), []byte("frame two"), []byte("frame three")}
	p, sensors, err := setupIngest(dir, payloads, nil, func(uint64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sensors {
		for i := 0; i < 5; i++ {
			if err := s.send(time.Now(), 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := closeSensors(sensors); err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	acked := map[string]map[uint64][]byte{}
	for _, s := range sensors {
		if len(s.acked) != 6 {
			t.Fatalf("%s: %d frames acked, want 6", s.tenant, len(s.acked))
		}
		acked[s.tenant] = s.acked
	}
	for _, role := range []string{"primary", "follower"} {
		c, err := verifyNode(filepath.Join(dir, role), acked)
		if err != nil || len(c.missing) != 0 {
			t.Fatalf("%s: intact stores failed the gate: %v %v", role, err, c.missing)
		}
	}

	sh, err := store.OpenShards(filepath.Join(dir, "follower"), openStores)
	if err != nil {
		t.Fatal(err)
	}
	dropRecord(t, sh.Path(sensors[0].tenant), 3)
	c, err := verifyNode(filepath.Join(dir, "follower"), acked)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.missing) != 1 {
		t.Errorf("deleting one acked record from the follower: gate reported %v, want one missing frame", c.missing)
	}
}
