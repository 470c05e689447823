package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// goldenDir holds frozen frames, one per container dialect, written by an
// earlier encoder. Unlike the round-trip tests, which compare two outputs of
// the same build, these bytes do not move when the code does: an encoder and
// decoder changed together cannot silently orphan stored frames.
const goldenDir = "../../testdata/golden"

// goldenFrame is one manifest entry: the frame file, how its input was
// simulated, the options that encoded it, and what it must decode to.
type goldenFrame struct {
	File      string `json:"file"`
	Scene     string `json:"scene"`
	SceneSeed int64  `json:"scene_seed"`
	Sensor    string `json:"sensor"`
	SimSeed   int64  `json:"sim_seed"`
	Pose      struct {
		X   float64 `json:"x"`
		Y   float64 `json:"y"`
		Yaw float64 `json:"yaw"`
	} `json:"pose"`
	Options struct {
		Q            float64 `json:"q"`
		Shards       int     `json:"shards"`
		ContextModel bool    `json:"context_model"`
		// BlockPack marks the legacy blockpacked dialects, which the
		// encoder no longer emits: they are decoded, never re-encoded.
		BlockPack bool `json:"blockpack"`
	} `json:"options"`
	Version int `json:"version"`
	Dialect struct {
		Sharded     bool `json:"sharded"`
		BlockPacked bool `json:"blockpacked"`
		Context     bool `json:"context"`
	} `json:"dialect"`
	Bytes  int    `json:"bytes"`
	Points int    `json:"points"`
	SHA256 string `json:"sha256"`
}

var (
	goldenOnce     sync.Once
	goldenManifest []goldenFrame
	goldenErr      error
)

// goldenFrames returns the parsed manifest.
func goldenFrames(t testing.TB) []goldenFrame {
	t.Helper()
	goldenOnce.Do(func() {
		var js []byte
		js, goldenErr = os.ReadFile(filepath.Join(goldenDir, "manifest.json"))
		if goldenErr != nil {
			return
		}
		var m struct {
			Frames []goldenFrame `json:"frames"`
		}
		goldenErr = json.Unmarshal(js, &m)
		goldenManifest = m.Frames
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	if len(goldenManifest) == 0 {
		t.Fatal("golden manifest lists no frames")
	}
	return goldenManifest
}

// golden returns the manifest entry and bytes of the named golden frame.
func golden(t testing.TB, file string) (goldenFrame, []byte) {
	t.Helper()
	for _, f := range goldenFrames(t) {
		if f.File == file {
			data, err := os.ReadFile(filepath.Join(goldenDir, f.File))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != f.Bytes {
				t.Fatalf("%s: %d bytes on disk, manifest says %d", f.File, len(data), f.Bytes)
			}
			return f, data
		}
	}
	t.Fatalf("no golden frame %q", file)
	return goldenFrame{}, nil
}

// input regenerates the simulated cloud the frame was encoded from.
func (f goldenFrame) input(t testing.TB) geom.PointCloud {
	t.Helper()
	if f.Sensor != "VLP16" {
		t.Fatalf("%s: unknown sensor %q", f.File, f.Sensor)
	}
	scene, err := lidar.NewScene(lidar.SceneKind(f.Scene), f.SceneSeed)
	if err != nil {
		t.Fatal(err)
	}
	return lidar.VLP16().SimulateAt(scene, f.SimSeed, lidar.Pose{X: f.Pose.X, Y: f.Pose.Y, Yaw: f.Pose.Yaw})
}

// options returns the encoder options of a still-emitted dialect.
func (f goldenFrame) options() Options {
	opts := DefaultOptions(f.Options.Q)
	opts.Shards = f.Options.Shards
	opts.ContextModel = f.Options.ContextModel
	return opts
}

// hashCloud is the manifest's decoded-points digest: SHA-256 over the
// points in decode order, each as X, Y, Z IEEE-754 float64 little-endian.
func hashCloud(pc geom.PointCloud) string {
	h := sha256.New()
	var b [24]byte
	for _, p := range pc {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(p.Z))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenFrames pins every container dialect to frozen bytes: each
// golden frame decodes, serially and in parallel, to its manifest hash;
// Inspect reports its version and dialect flags; a region query equals the
// full decode filtered to the box; and for the dialects the encoder still
// emits, re-encoding the regenerated input reproduces the golden bytes.
func TestGoldenFrames(t *testing.T) {
	region := geom.AABB{Min: geom.Point{X: -15, Y: -15, Z: -3}, Max: geom.Point{X: 15, Y: 15, Z: 3}}
	for _, f := range goldenFrames(t) {
		t.Run(f.File, func(t *testing.T) {
			_, data := golden(t, f.File)
			lay, err := Inspect(data)
			if err != nil {
				t.Fatal(err)
			}
			if int(lay.Version) != f.Version || lay.ShardedStreams != f.Dialect.Sharded ||
				lay.BlockPacked != f.Dialect.BlockPacked || lay.ContextModeled != f.Dialect.Context {
				t.Fatalf("Inspect reports v%d sharded=%v blockpacked=%v ctx=%v, manifest v%d %+v",
					lay.Version, lay.ShardedStreams, lay.BlockPacked, lay.ContextModeled, f.Version, f.Dialect)
			}
			var full geom.PointCloud
			for _, par := range []bool{false, true} {
				got, err := DecompressWith(data, DecompressOptions{Parallel: par})
				if err != nil {
					t.Fatalf("decode (parallel=%v): %v", par, err)
				}
				if len(got) != f.Points || hashCloud(got) != f.SHA256 {
					t.Fatalf("decode (parallel=%v): %d points hashing to %s, manifest %d points %s",
						par, len(got), hashCloud(got), f.Points, f.SHA256)
				}
				full = got
			}

			got, err := DecompressRegion(data, region)
			if err != nil {
				t.Fatal(err)
			}
			var want geom.PointCloud
			for _, p := range full {
				if region.Contains(p) {
					want = append(want, p)
				}
			}
			if len(want) == 0 {
				t.Fatal("region box holds no points; pick a box inside the frame")
			}
			sortCloud(got)
			sortCloud(want)
			if !cloudsEqual(want, got) {
				t.Fatalf("region decode returned %d points, filtered full decode %d (or differing points)", len(got), len(want))
			}

			if f.Options.BlockPack {
				return
			}
			pc := f.input(t)
			for _, par := range []bool{false, true} {
				opts := f.options()
				opts.Parallel = par
				enc, _, err := Compress(pc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, data) {
					t.Fatalf("re-encode (parallel=%v) gives %d bytes differing from the %d golden bytes", par, len(enc), len(data))
				}
			}
		})
	}
}
