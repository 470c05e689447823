package core

import (
	"fmt"
	"testing"

	"dbgc/internal/geom"
)

// The encoder no longer writes blockpacked frames (container v4 and the v5
// blockpack bit); these tests pin the legacy reader against the golden
// frames an earlier encoder froze in testdata/golden.

// goldenLegacy decodes the golden v2 frame, which holds the same input as
// every other golden frame: all dialects must decode to exactly its points.
func goldenLegacy(t *testing.T) geom.PointCloud {
	t.Helper()
	_, data := golden(t, "v2.dbgc")
	pc, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// TestBlockPackRoundTrip is the v4 dialect contract: for every shard count
// the golden blockpacked frame carries version 4, and serial and parallel
// decodes reproduce the legacy decode exactly.
func TestBlockPackRoundTrip(t *testing.T) {
	want := goldenLegacy(t)
	for _, tc := range []struct {
		shards int
		file   string
	}{{1, "v4.dbgc"}, {4, "v4-sharded.dbgc"}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			_, data := golden(t, tc.file)
			if data[len(magic)] != version4 {
				t.Fatalf("blockpacked container has version %d, want %d", data[len(magic)], version4)
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
		})
	}
}

// TestBlockPackWithLimits decodes a v4 frame under the production decode
// limits; real frames must pass and tiny budgets must fail cleanly.
func TestBlockPackWithLimits(t *testing.T) {
	_, data := golden(t, "v4-sharded.dbgc")
	if _, err := DecompressWith(data, DecompressOptions{Limits: DefaultDecodeLimits()}); err != nil {
		t.Fatalf("default limits rejected a real v4 frame: %v", err)
	}
	tiny := DecodeLimits{MaxNodes: 64}
	if _, err := DecompressWith(data, DecompressOptions{Limits: tiny}); err == nil {
		t.Fatal("a 64-node budget decoded a full v4 frame")
	}
}

// TestBlockPackRegion checks that the region query path handles the v4
// dialect: the blockpacked frame yields the same region points as legacy.
func TestBlockPackRegion(t *testing.T) {
	_, legacy := golden(t, "v2.dbgc")
	_, packed := golden(t, "v4.dbgc")
	region := geom.AABB{Min: geom.Point{X: -20, Y: -20, Z: -5}, Max: geom.Point{X: 20, Y: 20, Z: 5}}
	want, err := DecompressRegion(legacy, region)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressRegion(packed, region)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("region box holds no points")
	}
	if !cloudsEqual(want, got) {
		t.Fatalf("v4 region decode returned %d points, legacy %d (or differing points)", len(got), len(want))
	}
}

// TestBlockPackPartialSalvage damages one sparse radial group of a v4 frame
// and checks that the group-CRC salvage of the v3 dialect still works: the
// other groups and sections survive.
func TestBlockPackPartialSalvage(t *testing.T) {
	_, data := golden(t, "v4.dbgc")
	intact, _, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the sparse section (it aliases data).
	sp := c.sec[SectionSparse].payload
	sp[len(sp)/2] ^= 0xff
	got, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatalf("partial decode of damaged v4 frame: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("nothing salvaged from a single-byte-damaged v4 frame")
	}
	if len(got) >= len(intact) {
		t.Fatalf("salvaged %d points from a damaged frame, intact frame has %d", len(got), len(intact))
	}
	if reports[SectionSparse].Err == nil {
		t.Fatal("sparse section damage not reported")
	}
	if reports[SectionSparse].Points == 0 {
		t.Fatal("group salvage recovered no sparse points")
	}
}
