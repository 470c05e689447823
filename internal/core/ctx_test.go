package core

import (
	"bytes"
	"fmt"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// TestContextModelEquivalence is the v5 contract: across the dialect matrix
// (shards × blockpack), a ContextModel frame decodes to exactly the points
// of the plain frame, serial and parallel encodes are byte-identical, the
// container carries version 5 with the right dialect byte, and the
// per-stream size guard keeps the frame from ever growing past the marker
// overhead. The encoder no longer writes blockpacked frames, so those rows
// check the golden frames an earlier encoder froze.
func TestContextModelEquivalence(t *testing.T) {
	pc := frame(t, lidar.City)
	plainData, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(plainData)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=false", shards), func(t *testing.T) {
			opts := DefaultOptions(0.02)
			opts.Shards = shards
			plain, _, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.ContextModel = true
			serial, stats, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallel = true
			parallel, _, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, parallel) {
				t.Fatal("parallel context encode differs from serial")
			}
			t.Logf("frame bytes: plain %d, ctx %d (ratio %.2f)", len(plain), len(serial), stats.CompressionRatio())
			if len(stats.Mapping) != len(pc) {
				t.Fatalf("mapping has %d entries, want %d", len(stats.Mapping), len(pc))
			}
			checkContextFrame(t, serial, plain, want, shards > 1, false)
		})
	}
	legacy := goldenLegacy(t)
	for _, tc := range []struct {
		shards      int
		plain, file string
	}{{0, "v4.dbgc", "v5-ctx-blockpack.dbgc"}, {4, "v4-sharded.dbgc", "v5-ctx-sharded-blockpack.dbgc"}} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=true", tc.shards), func(t *testing.T) {
			_, plain := golden(t, tc.plain)
			_, data := golden(t, tc.file)
			checkContextFrame(t, data, plain, legacy, tc.shards > 1, true)
		})
	}
}

// checkContextFrame checks one v5 frame against its base-dialect frame
// plain and the points want that both must decode to.
func checkContextFrame(t *testing.T, data, plain []byte, want geom.PointCloud, sharded, blockpack bool) {
	t.Helper()
	if data[len(magic)] != version5 {
		t.Fatalf("context container has version %d, want %d", data[len(magic)], version5)
	}
	wantDialect := byte(dialectContext)
	if sharded {
		wantDialect |= dialectSharded
	}
	if blockpack {
		wantDialect |= dialectBlockPack
	}
	if data[len(magic)+1] != wantDialect {
		t.Fatalf("dialect byte %#x, want %#x", data[len(magic)+1], wantDialect)
	}
	// The guard bound: the v5 frame carries one dialect byte plus at most
	// one method marker per guarded stream over its base dialect.
	if len(data) > len(plain)+16 {
		t.Fatalf("context frame %dB exceeds plain %dB + markers", len(data), len(plain))
	}
	for _, par := range []bool{false, true} {
		got, err := DecompressWith(data, DecompressOptions{Parallel: par})
		if err != nil {
			t.Fatalf("decode (parallel=%v): %v", par, err)
		}
		if !cloudsEqual(want, got) {
			t.Fatalf("decode (parallel=%v) differs from legacy decode", par)
		}
	}
	lay, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !lay.ContextModeled || lay.ShardedStreams != sharded || lay.BlockPacked != blockpack {
		t.Fatalf("Inspect reports ctx=%v sharded=%v blockpack=%v", lay.ContextModeled, lay.ShardedStreams, lay.BlockPacked)
	}
}

// TestContextModelUnderLimits: a v5 frame decodes under the default
// production limits, and a MaxContexts cap below the stream's context count
// rejects the frame up front instead of building the tables.
func TestContextModelUnderLimits(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := DefaultOptions(0.02)
	opts.ContextModel = true
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWith(data, DecompressOptions{Limits: DefaultDecodeLimits()}); err != nil {
		t.Fatalf("default limits reject a real v5 frame: %v", err)
	}
	lim := DefaultDecodeLimits()
	lim.MaxContexts = 1
	if _, err := DecompressWith(data, DecompressOptions{Limits: lim}); err == nil {
		t.Fatal("MaxContexts=1 accepted a context-modeled frame")
	}
}

// TestContextModelCorrupt: the v5 envelope rejects unknown dialect bits and
// truncations anywhere in the frame.
func TestContextModelCorrupt(t *testing.T) {
	pc := frame(t, lidar.Residential)
	opts := DefaultOptions(0.02)
	opts.ContextModel = true
	opts.Shards = 2
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(magic)+1] = 0x80
	if _, err := Decompress(bad); err == nil {
		t.Fatal("unknown dialect bits accepted")
	}
	for cut := 0; cut < len(data); cut += len(data)/97 + 1 {
		if _, err := Decompress(data[:cut]); err == nil {
			t.Fatalf("truncated at %d: want error", cut)
		}
	}
}

// TestContextModelRegion: region queries work on v5 frames.
func TestContextModelRegion(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := DefaultOptions(0.02)
	opts.ContextModel = true
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	region := geom.AABB{Min: geom.Point{X: -20, Y: -20, Z: -5}, Max: geom.Point{X: 20, Y: 20, Z: 5}}
	got, err := DecompressRegion(data, region)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, p := range full {
		if region.Contains(p) {
			wantN++
		}
	}
	if len(got) != wantN {
		t.Fatalf("region decode returned %d points, filter says %d", len(got), wantN)
	}
}
