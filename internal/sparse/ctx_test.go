package sparse

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// TestContextRoundTrip: the v5 context dialect decodes identically to the
// legacy section across the dialect matrix (shards × blockpack), parallel
// encode stays deterministic, and the section never grows by more than the
// per-group methods byte. The encoder no longer writes blockpacked sections,
// so those rows check the golden frames an earlier encoder froze.
func TestContextRoundTrip(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	base := defaultOpts(meta)
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=false", shards), func(t *testing.T) {
			opts := base
			opts.Shards = shards
			plain, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decode(plain.Data)
			if err != nil {
				t.Fatal(err)
			}
			opts.Context = true
			serial, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallel = true
			par, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Data, par.Data) {
				t.Fatal("parallel context encode differs from serial")
			}
			t.Logf("section bytes: plain %d, ctx %d", len(plain.Data), len(serial.Data))
			for _, got := range checkContextSection(t, serial.Data, plain.Data, want) {
				verify(t, pc, serial, got, base.Q)
			}
		})
	}
	for _, tc := range []struct {
		shards      int
		plain, file string
	}{{0, "v4.dbgc", "v5-ctx-blockpack.dbgc"}, {4, "v4-sharded.dbgc", "v5-ctx-sharded-blockpack.dbgc"}} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=true", tc.shards), func(t *testing.T) {
			plain := goldenSparse(t, tc.plain)
			want, err := Decode(plain)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := Decode(goldenSparse(t, "v2.dbgc"))
			if err != nil {
				t.Fatal(err)
			}
			if !pointsEqual(want, legacy) {
				t.Fatal("blockpacked section decodes differently from the v2 section")
			}
			checkContextSection(t, goldenSparse(t, tc.file), plain, want)
		})
	}
}

// checkContextSection decodes the context-dialect section data serially and
// in parallel, checks both against want (the decode of the base-dialect
// section plain), and returns the two decodes.
func checkContextSection(t *testing.T, data, plain []byte, want geom.PointCloud) []geom.PointCloud {
	t.Helper()
	// Guard bound: one methods byte per group is the only overhead the
	// dialect may add when every coder loses.
	groups := sectionGroups(t, data)
	if len(data) > len(plain)+groups {
		t.Fatalf("context section %dB exceeds plain %dB + %d method bytes", len(data), len(plain), groups)
	}
	var out []geom.PointCloud
	for _, pdec := range []bool{false, true} {
		got, err := DecodeWith(data, DecodeOptions{Parallel: pdec})
		if err != nil {
			t.Fatalf("decode (parallel=%v): %v", pdec, err)
		}
		if !pointsEqual(got, want) {
			t.Fatalf("decode (parallel=%v): %d points differ from the %d of the plain section", pdec, len(got), len(want))
		}
		out = append(out, got)
	}
	return out
}

func pointsEqual(a, b geom.PointCloud) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sectionGroups reads the radial group count from a section header: flags
// varint, q float64, group count varint.
func sectionGroups(t *testing.T, data []byte) int {
	t.Helper()
	_, used, err := varint.Uint(data)
	if err != nil || len(data) < used+8 {
		t.Fatalf("section header: %v", err)
	}
	g, _, err := varint.Uint(data[used+8:])
	if err != nil {
		t.Fatalf("section group count: %v", err)
	}
	return int(g)
}

// goldenSparse returns the sparse section of a golden DBGC frame from the
// repository's testdata/golden: magic, version, the v5 dialect byte, the
// outlier mode varint, then three "length varint | CRC-32C | payload"
// sections of which the sparse one is the second.
func goldenSparse(t *testing.T, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 6 || string(data[:4]) != "DBGC" {
		t.Fatalf("%s: not a DBGC frame", file)
	}
	rest := data[5:]
	if data[4] == 5 {
		rest = rest[1:]
	}
	_, used, err := varint.Uint(rest)
	if err != nil {
		t.Fatal(err)
	}
	rest = rest[used:]
	for sec := 0; sec < 2; sec++ {
		l, used, err := varint.Uint(rest)
		if err != nil || uint64(len(rest)) < uint64(used)+4+l {
			t.Fatalf("%s: section %d framing: %v", file, sec, err)
		}
		rest = rest[used+4:]
		if sec == 1 {
			return rest[:l]
		}
		rest = rest[l:]
	}
	return nil
}

// TestContextCorrupt: truncating a context-dialect section anywhere must
// error, and reserved method markers are rejected.
func TestContextCorrupt(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	opts.Context = true
	enc, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc.Data); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(enc.Data); l += 17 {
		if _, err := Decode(enc.Data[:l]); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
}
