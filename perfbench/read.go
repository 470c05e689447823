package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dbgc"
	"dbgc/internal/declimits"
	"dbgc/internal/octree"
	"dbgc/internal/outlier"
	"dbgc/internal/sparse"
)

// read-hdl64 inputs: eight passes through the six scenes, compressed once
// into the archive the run reads back. Each read of a frame is one full
// decode and two region queries.
const (
	readPasses = 8
	// readMinSamples gives decode_ms_p90 ten samples beyond it.
	readMinSamples = 100
	regionsPerRead = 2
	// readSetups repeats the set-up on that many archived frames.
	readSetups = 9
)

// Region queries: fixed-size boxes (20 x 20 x 8 m) centred at seeded
// azimuths in five range bands, from one around the sensor (most of the
// frame) to one in the sparse far field (a few dozen points), so both
// pruning-bound and decode-bound queries are in the mix.
var (
	boxHalf    = dbgc.Point{X: 10, Y: 10, Z: 4}
	boxBands   = [][2]float64{{0, 4}, {12, 20}, {22, 35}, {38, 55}, {60, 85}}
	boxCenterZ = -0.5
)

// archived is one frame of the read-hdl64 archive with the hashes the
// correctness gate checks every read against.
type archived struct {
	scene   string
	points  int
	data    []byte
	full    [32]byte // SHA-256 of the decoded points, taken at build time
	boxes   []dbgc.AABB
	inBox   [][32]byte // SHA-256 of the full decode filtered to each box
	inCount []int
}

// queryBoxes returns the seeded query boxes of frame i.
func queryBoxes(seed int64, i int) []dbgc.AABB {
	rng := rand.New(rand.NewSource(mix(seed, int64(i), -2)))
	out := make([]dbgc.AABB, len(boxBands))
	for b, band := range boxBands {
		r := band[0] + rng.Float64()*(band[1]-band[0])
		az := rng.Float64() * 2 * math.Pi
		c := dbgc.Point{X: r * math.Cos(az), Y: r * math.Sin(az), Z: boxCenterZ}
		out[b] = dbgc.AABB{
			Min: dbgc.Point{X: c.X - boxHalf.X, Y: c.Y - boxHalf.Y, Z: c.Z - boxHalf.Z},
			Max: dbgc.Point{X: c.X + boxHalf.X, Y: c.Y + boxHalf.Y, Z: c.Z + boxHalf.Z},
		}
	}
	return out
}

// filterBox returns the points of pc inside box, in order.
func filterBox(pc dbgc.PointCloud, box dbgc.AABB) dbgc.PointCloud {
	var out dbgc.PointCloud
	for _, p := range pc {
		if box.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// buildArchive compresses the frames and records, from one full decode of
// each, the hashes every later read must reproduce.
func buildArchive(seed int64, frames []frame) ([]archived, error) {
	blobs, err := compressAll(frames, q)
	if err != nil {
		return nil, err
	}
	out := make([]archived, len(frames))
	for i, f := range frames {
		pc, err := dbgc.DecompressWith(blobs[i], dbgc.DecompressOptions{Limits: dbgc.DefaultDecodeLimits()})
		if err != nil {
			return nil, fmt.Errorf("archive frame %d: %w", i, err)
		}
		a := archived{scene: string(f.Scene), points: len(f.Points), data: blobs[i], full: pointsHash(pc), boxes: queryBoxes(seed, i)}
		for _, box := range a.boxes {
			in := filterBox(pc, box)
			a.inBox = append(a.inBox, pointsHash(in))
			a.inCount = append(a.inCount, len(in))
		}
		out[i] = a
	}
	return out, nil
}

// checkDecode is the read-hdl64 gate for a full decode.
func checkDecode(a *archived, pc dbgc.PointCloud, err error) error {
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if len(pc) != a.points {
		return fmt.Errorf("decoded %d points, archived %d", len(pc), a.points)
	}
	if pointsHash(pc) != a.full {
		return errors.New("decoded points differ from the archive hash")
	}
	return nil
}

// checkRegion is the read-hdl64 gate for a region query: the result must
// equal the full decode filtered to the box, in order.
func checkRegion(a *archived, b int, pc dbgc.PointCloud, err error) error {
	if err != nil {
		return fmt.Errorf("region %d: %w", b, err)
	}
	if len(pc) != a.inCount[b] || pointsHash(pc) != a.inBox[b] {
		return fmt.Errorf("region %d: %d points differ from the %d of the filtered full decode", b, len(pc), a.inCount[b])
	}
	return nil
}

// container is a frame envelope split into its sections: magic "DBGC",
// version, a dialect byte on version 5, the outlier mode, then three
// sections (dense, sparse, outlier), each a uvarint length, a CRC-32C on
// version 2 and later, and the payload.
type container struct {
	version, dialect byte
	mode             uint64
	sec              [3][]byte
}

const (
	dialectSharded   = 1 << 0
	dialectBlockPack = 1 << 1
	dialectContext   = 1 << 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// parseContainer splits a frame and verifies the section CRCs.
func parseContainer(data []byte) (container, error) {
	var c container
	if len(data) < 5 || !bytes.Equal(data[:4], []byte("DBGC")) {
		return c, errors.New("container: bad magic")
	}
	c.version, data = data[4], data[5:]
	if c.version == 5 {
		if len(data) < 1 {
			return c, errors.New("container: missing dialect")
		}
		c.dialect, data = data[0], data[1:]
	}
	mode, n := binary.Uvarint(data)
	if n <= 0 {
		return c, errors.New("container: outlier mode")
	}
	c.mode, data = mode, data[n:]
	for id := range c.sec {
		l, n := binary.Uvarint(data)
		if n <= 0 {
			return c, fmt.Errorf("container: section %d length", id)
		}
		data = data[n:]
		var crc uint32
		if c.version >= 2 {
			if len(data) < 4 {
				return c, fmt.Errorf("container: section %d CRC", id)
			}
			crc, data = binary.LittleEndian.Uint32(data), data[4:]
		}
		if l > uint64(len(data)) {
			return c, fmt.Errorf("container: section %d truncated", id)
		}
		c.sec[id], data = data[:l], data[l:]
		if c.version >= 2 && crc32.Checksum(c.sec[id], castagnoli) != crc {
			return c, fmt.Errorf("container: section %d CRC mismatch", id)
		}
	}
	return c, nil
}

// flags returns the entropy dialect the section decoders must be told.
func (c container) flags() (sharded, blockpack, ctx bool) {
	if c.version == 5 {
		return c.dialect&dialectSharded != 0, c.dialect&dialectBlockPack != 0, c.dialect&dialectContext != 0
	}
	return c.version >= 3, c.version >= 4, false
}

// sectionTimes is one traced decode split by section decoder.
type sectionTimes struct {
	octree, sparse, outlier time.Duration
}

// decodeSections decodes a frame by calling the section decoders directly
// and returns the concatenated points (dense, sparse, outlier) with the
// time of each call.
func decodeSections(data []byte) (dbgc.PointCloud, sectionTimes, error) {
	var t sectionTimes
	c, err := parseContainer(data)
	if err != nil {
		return nil, t, err
	}
	sharded, blockpack, ctx := c.flags()
	b := declimits.New(dbgc.DefaultDecodeLimits())
	t0 := time.Now()
	dense, err := octree.DecodeWith(c.sec[0], octree.DecodeOptions{Budget: b, Sharded: sharded, BlockPack: blockpack, Context: ctx})
	t.octree = time.Since(t0)
	if err != nil {
		return nil, t, fmt.Errorf("octree section: %w", err)
	}
	t0 = time.Now()
	sp, err := sparse.DecodeWith(c.sec[1], sparse.DecodeOptions{Budget: b})
	t.sparse = time.Since(t0)
	if err != nil {
		return nil, t, fmt.Errorf("sparse section: %w", err)
	}
	t0 = time.Now()
	var out dbgc.PointCloud
	switch dbgc.OutlierMode(c.mode) {
	case dbgc.OutlierQuadtree:
		out, err = outlier.DecodeWith(c.sec[2], outlier.DecodeOptions{Budget: b, Sharded: sharded, BlockPack: blockpack})
	case dbgc.OutlierOctree:
		out, err = octree.DecodeWith(c.sec[2], octree.DecodeOptions{Budget: b, Sharded: sharded, BlockPack: blockpack, Context: ctx})
	default:
		err = fmt.Errorf("outlier mode %d has no section decoder", c.mode)
	}
	t.outlier = time.Since(t0)
	if err != nil {
		return nil, t, fmt.Errorf("outlier section: %w", err)
	}
	all := make(dbgc.PointCloud, 0, len(dense)+len(sp)+len(out))
	all = append(append(append(all, dense...), sp...), out...)
	return all, t, nil
}

// samePoints reports whether two clouds are identical point for point.
func samePoints(a, b dbgc.PointCloud) bool {
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

func runRead(cfg config) (*result, error) {
	frames, err := drive(cfg.Seed, readPasses)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	ih := inputsHash(frames)
	res.Inputs = fmt.Sprintf("%x", ih)
	archive, err := buildArchive(cfg.Seed, frames)
	if err != nil {
		return nil, err
	}
	var rawBytes, compBytes float64
	for i, a := range archive {
		rawBytes += float64(frames[i].rawBytes())
		compBytes += float64(len(a.data))
	}
	frames = nil // the archive is the input from here on
	settle()

	// Set-up: the production decode limits and a first full and region
	// decode, which size the decoders' scratch; each repeat starts on
	// another frame.
	opts := dbgc.DecompressOptions{}
	setupCPU, setupWall := make([]float64, readSetups), make([]float64, readSetups)
	for i := range setupCPU {
		a := &archive[i%len(archive)]
		runtime.GC() // every repeat starts from the same heap state
		c0, t0 := cpuTime(), time.Now()
		opts = dbgc.DecompressOptions{Limits: dbgc.DefaultDecodeLimits()}
		pc, err := dbgc.DecompressWith(a.data, opts)
		if err := checkDecode(a, pc, err); err != nil {
			return nil, fmt.Errorf("set-up decode: %w", err)
		}
		pc, err = dbgc.DecompressRegion(a.data, a.boxes[0])
		if err := checkRegion(a, 0, pc, err); err != nil {
			return nil, fmt.Errorf("set-up region: %w", err)
		}
		setupCPU[i], setupWall[i] = (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
	}

	tr := res.tracer
	allocs := newAllocCounter()
	var decPlain, decTraced, regionMs, cpuMs []float64
	var busy time.Duration
	var ops int
	var regionPts, regionOf float64
	start := time.Now()
	for i := 0; measureFor(cfg, start, len(decPlain), readMinSamples); i++ {
		fi := i % len(archive)
		a := &archive[fi]
		traced := tr != nil && (i+i/len(archive))%2 == 1
		key := fmt.Sprintf("read-%d", i)
		var a0 uint64
		if traced {
			a0 = allocs.read()
		}
		c0, t0 := cpuTime(), time.Now()
		pc, err := dbgc.DecompressWith(a.data, opts)
		t1, c1 := time.Now(), cpuTime()
		readCPU := c1 - c0
		res.Attempted++
		if err := checkDecode(a, pc, err); err != nil {
			res.fail("frame %d (%s): %v", fi, a.scene, err)
			continue
		}
		busy += t1.Sub(t0)
		ops++
		ms := msOf(t1.Sub(t0))
		if traced {
			a1 := allocs.read()
			decTraced = append(decTraced, ms)
			tr.add(span{Trace: key, Name: "core.decompress", Start: tr.at(t0), End: tr.at(t1),
				Counts: map[string]float64{"allocs": float64(a1 - a0), "points": float64(len(pc))}})
			s0 := time.Now()
			secPts, st, err := decodeSections(a.data)
			s1 := time.Now()
			res.Attempted++
			if err == nil && !samePoints(secPts, pc) {
				err = errors.New("section decoder outputs differ from DecompressWith")
			}
			if err != nil {
				res.fail("frame %d (%s): sections: %v", fi, a.scene, err)
			} else {
				// The section decoders run one after another inside the
				// "core.sections" span; the span's self time is container
				// parse, CRC and concatenation.
				p := tr.at(s0)
				tr.add(span{Trace: key, Name: "core.sections", Start: p, End: tr.at(s1), Counts: map[string]float64{
					"decompress_ns": float64(t1.Sub(t0)),
					"sections_ns":   float64(st.octree + st.sparse + st.outlier),
				}})
				for _, sec := range []struct {
					name string
					d    time.Duration
				}{{"octree.decode", st.octree}, {"sparse.decode", st.sparse}, {"outlier.decode", st.outlier}} {
					tr.add(span{Trace: key, Name: sec.name, Parent: "core.sections", Start: p, End: p + int64(sec.d)})
					p += int64(sec.d)
				}
			}
		} else {
			decPlain = append(decPlain, ms)
		}
		pc = nil
		// The queries cycle through the range bands, so every band is
		// asked equally often.
		for k := 0; k < regionsPerRead; k++ {
			b := (regionsPerRead*i + k) % len(a.boxes)
			box := a.boxes[b]
			c0, r0 := cpuTime(), time.Now()
			got, err := dbgc.DecompressRegion(a.data, box)
			r1, c1 := time.Now(), cpuTime()
			readCPU += c1 - c0
			res.Attempted++
			if err := checkRegion(a, b, got, err); err != nil {
				res.fail("frame %d (%s): %v", fi, a.scene, err)
				continue
			}
			busy += r1.Sub(r0)
			ops++
			regionMs = append(regionMs, msOf(r1.Sub(r0)))
			regionPts += float64(len(got))
			regionOf += float64(a.points)
			if traced {
				tr.add(span{Trace: fmt.Sprintf("%s/box-%d", key, b), Name: "core.region", Start: tr.at(r0), End: tr.at(r1),
					Counts: map[string]float64{"points": float64(len(got))}})
			}
		}
		if !traced {
			cpuMs = append(cpuMs, msOf(readCPU))
		}
	}

	res.common(setupCPU, setupWall, rawBytes/compBytes)
	res.note("region_ms_p50", median(regionMs), "ms", len(regionMs))
	if cfg.Trace {
		spans := tr.snapshot()
		self := selfTimesMs(spans)
		res.Layers["octree.decode_ms"] = median(self["octree.decode"])
		res.Layers["sparse.decode_ms"] = median(self["sparse.decode"])
		res.Layers["outlier.decode_ms"] = median(self["outlier.decode"])
		res.Layers["region.ms"] = median(self["core.region"])
		var other, allocsPer []float64
		for _, s := range spans {
			switch s.Name {
			case "core.sections":
				// DecompressWith time beyond the three section decoders
				// of the same frame: container parse, CRC, assembly.
				other = append(other, (s.Counts["decompress_ns"]-s.Counts["sections_ns"])/1e6)
			case "core.decompress":
				allocsPer = append(allocsPer, s.Counts["allocs"])
			}
		}
		res.Layers["core.decode_other_ms"] = median(other)
		res.Layers["decode.allocs_per_frame"] = median(allocsPer)
		res.Layers["region.points_frac"] = regionPts / regionOf
		res.Layers["trace.overhead_pct"] = 100 * (median(decTraced)/median(decPlain) - 1)
		for _, m := range perLayer {
			if v, ok := res.Layers[m.name]; ok {
				res.note(m.name, v, m.unit, 0)
			}
		}
		res.note("decode_ms_p50.untraced", median(decPlain), "ms", len(decPlain))
		res.note("decode_ms_p50.traced", median(decTraced), "ms", len(decTraced))
	} else {
		res.EndToEnd["cpu_ms_per_op"] = median(cpuMs)
		res.note("read_cpu_ms_p50", median(cpuMs), "ms", len(cpuMs))
		res.latency("decode_ms_p50", "decode_ms_p90", 90, decPlain)
		res.note("read_ops_per_s", float64(ops)/busy.Seconds(), "1/s", ops)
	}
	return res, nil
}
