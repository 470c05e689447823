package octree

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dbgc/internal/ctxmodel"
	"dbgc/internal/geom"
)

// TestContextRoundTrip: the context-modeled occupancy dialect decodes to
// the same geometry as the legacy stream across shard counts, serial and
// parallel encodes are byte-identical, and the stream leads with a valid
// method marker.
func TestContextRoundTrip(t *testing.T) {
	pc := randomCloud(60000, 120, 9)
	const q = 0.02
	legacy, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(legacy.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d/feats=0x3", shards), func(t *testing.T) {
			opts := EncodeOptions{Shards: shards, Context: true}
			serial, err := EncodeWith(pc, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallel = true
			par, err := EncodeWith(pc, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Data, par.Data) {
				t.Fatal("parallel context encode differs from serial")
			}
			for _, pdec := range []bool{false, true} {
				got, err := DecodeWith(serial.Data, DecodeOptions{Sharded: shards > 1, Context: true, Parallel: pdec})
				if err != nil {
					t.Fatalf("decode (parallel=%v): %v", pdec, err)
				}
				if len(got) != len(want) {
					t.Fatalf("decoded %d points, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("point %d: got %v want %v", i, got[i], want[i])
					}
				}
				checkErrorBound(t, pc, got, serial.DecodedOrder, q)
			}
		})
		// The retired all-features scheme (feature byte 0x0f, 128
		// contexts) no longer round-trips: its context-coded streams,
		// written by the former encoder into the fuzz corpus, are corrupt.
		t.Run(fmt.Sprintf("shards=%d/feats=0xf", shards), func(t *testing.T) {
			name := "featall"
			if shards > 1 {
				name = "featall-sharded"
			}
			data := readCorpusBytes(t, filepath.Join("testdata", "fuzz", "FuzzContextOctree", name))
			opts := DecodeOptions{Sharded: shards > 1, Context: true}
			if _, err := DecodeWith(data, opts); !errors.Is(err, ctxmodel.ErrCorrupt) {
				t.Fatalf("decode: err = %v, want ctxmodel.ErrCorrupt", err)
			}
			box := geom.AABB{Min: geom.Point{X: -1, Y: -1, Z: -1}, Max: geom.Point{X: 1, Y: 1, Z: 1}}
			if _, err := DecodeRegionWith(data, box, opts); !errors.Is(err, ctxmodel.ErrCorrupt) {
				t.Fatalf("region decode: err = %v, want ctxmodel.ErrCorrupt", err)
			}
		})
	}
}

// readCorpusBytes returns the []byte value of a single-argument Go fuzz
// corpus file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestContextGuard: a Context encode must never produce a larger occupancy
// stream than the legacy dialect it guards against — when the context
// coding loses, the marker must say legacy and the payload must be the
// exact legacy bytes.
func TestContextGuard(t *testing.T) {
	// A tiny cloud gives the context models nothing to learn from, so the
	// per-stream guard should fall back to the legacy bytes.
	pc := randomCloud(12, 5, 2)
	const q = 0.01
	plain, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := EncodeWith(pc, q, EncodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	// The context stream carries one marker byte per frame over legacy.
	if len(ctx.Data) > len(plain.Data)+1 {
		t.Fatalf("context stream %dB exceeds legacy %dB + marker", len(ctx.Data), len(plain.Data))
	}
	got, err := DecodeWith(ctx.Data, DecodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, pc, got, ctx.DecodedOrder, q)
}

// TestContextCorrupt: bad method markers are rejected, and truncating a
// context stream anywhere errors rather than panicking.
func TestContextCorrupt(t *testing.T) {
	pc := randomCloud(3000, 40, 4)
	enc, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWith(enc.Data, DecodeOptions{Context: true}); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(enc.Data); l += 11 {
		if _, err := DecodeWith(enc.Data[:l], DecodeOptions{Context: true}); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
}

// TestGroupedContextRoundTrip: the context-modeled grouped dialect decodes
// to the same geometry as the legacy grouped stream and is self-describing
// (DecodeGrouped needs no option to read it).
func TestGroupedContextRoundTrip(t *testing.T) {
	pc := randomCloud(20000, 80, 6)
	const q = 0.02
	legacy, err := EncodeGrouped(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeGrouped(legacy.Data)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := EncodeGroupedWith(pc, q, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGrouped(ctx.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %v want %v", i, got[i], want[i])
		}
	}
	t.Logf("grouped occupancy bytes: legacy %d, ctx %d", len(legacy.Data), len(ctx.Data))
	for l := 0; l < len(ctx.Data); l += 13 {
		if _, err := DecodeGrouped(ctx.Data[:l]); err == nil {
			t.Errorf("grouped ctx truncated at %d: want error", l)
		}
	}
}
