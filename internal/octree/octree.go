// Package octree implements the baseline octree geometry coder of Botsch et
// al. that the paper adopts for dense points (§2.2, §3.2), plus the
// "Octree_i" variant of Garcia et al. that groups occupancy codes by their
// parent's occupancy code and compresses each group separately (§4.1).
//
// Construction follows §2.1: the bounding cube of the cloud is recursively
// partitioned until the leaf side length is at most twice the error bound,
// every non-leaf node is serialized breadth-first as an 8-bit occupancy
// code, and the code sequence is compressed with an adaptive arithmetic
// coder. Decoded points are the centers of the occupied leaves, repeated by
// the per-leaf point count so the decompressed cloud keeps a one-to-one
// mapping with the input.
package octree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dbgc/internal/arith"
	"dbgc/internal/blockpack"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed octree stream.
var ErrCorrupt = errors.New("octree: corrupt stream")

// maxDepth caps subdivision depth; 40 levels cover any realistic scene-to-
// error-bound ratio (2^40 cells per axis) and bound decoder work on corrupt
// headers.
const maxDepth = 40

// Encoded is the output of Encode.
type Encoded struct {
	// Data is the self-contained bit stream.
	Data []byte
	// DecodedOrder maps decoded point position j to the index of the
	// original point it reconstructs. It is side information for error
	// accounting and is not part of Data.
	DecodedOrder []int
	// EntropyTime is the wall time of the arithmetic coding passes
	// (occupancy + counts), separated from tree construction so per-stage
	// benchmarks can pinpoint the entropy bottleneck.
	EntropyTime time.Duration
}

// span is one octree node during breadth-first construction: a range of the
// scratch index array holding the points inside its cell. All nodes of one
// level share the same half side length, so only the center is per-node.
type span struct {
	start, end int
	center     geom.Point
}

// buildScratch holds the reusable state of one breadth-first construction:
// two ping-pong point index arrays, the per-point child octant cache, the
// node spans of the current and next level, and the occupancy/count output
// sequences. Pooled so steady-state Encode allocates only its output.
type buildScratch struct {
	idx     [2][]int32
	octant  []uint8
	cur     []span
	next    []span
	occ     []byte
	counts  []uint64
	codes   []byte  // per-span occupancy codes of the parallel pass
	counts8 []int32 // per-span flattened [8]int32 child counts
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow returns s with length n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeOptions tunes Encode.
type EncodeOptions struct {
	// Parallel shards the per-level occupancy construction across CPUs and
	// runs the arithmetic coding passes concurrently. The stream is
	// byte-identical to a serial encode with the same Shards value.
	Parallel bool
	// Shards splits the occupancy and count entropy streams into this many
	// independently-coded shards (container v3). Values <= 1 keep the
	// legacy single-coder streams, byte-identical to previous releases.
	// The produced stream requires a shard-aware decoder (DecodeWith with
	// Sharded set) when Shards > 1.
	Shards int
	// Context prefixes the occupancy stream with a one-byte method marker
	// and, when the context-modeled coding of internal/ctxmodel beats the
	// v2/v3 bytes, emits it (container v5). The per-stream size guard
	// means enabling Context never grows the stream; when context coding
	// loses, the marker is followed by the exact legacy bytes. The
	// produced stream requires DecodeWith with Context set.
	Context bool
}

// Occupancy method markers of the Context (v5) dialect.
const (
	occMethodLegacy = 0 // the v2/v3/v4 occupancy bytes, unchanged
	occMethodCtx    = 1 // the ctxmodel context-coded stream
)

// Encode compresses points so that every reconstructed coordinate differs
// from the original by at most q per dimension. An empty input encodes to a
// valid empty stream.
func Encode(points geom.PointCloud, q float64) (Encoded, error) {
	return EncodeWith(points, q, EncodeOptions{})
}

// EncodeWith is Encode with explicit options.
func EncodeWith(points geom.PointCloud, q float64, opts EncodeOptions) (Encoded, error) {
	if q <= 0 {
		return Encoded{}, fmt.Errorf("octree: error bound must be positive, got %v", q)
	}
	var enc Encoded
	header := make([]byte, 0, 64)
	header = varint.AppendUint(header, uint64(len(points)))
	if len(points) == 0 {
		enc.Data = header
		return enc, nil
	}

	cube := geom.Bounds(points).Cube()
	depth := depthFor(cube.MaxDim(), q)
	// Pad the cube so leaves measure exactly 2q (§2.1): without padding
	// the leaf side would depend on the cloud extent and could shrink to
	// half the allowed size, wasting a full subdivision level.
	side := 2 * q * math.Pow(2, float64(depth))
	if side < cube.MaxDim() {
		side = cube.MaxDim()
	}
	header = appendFloat(header, cube.Min.X)
	header = appendFloat(header, cube.Min.Y)
	header = appendFloat(header, cube.Min.Z)
	header = appendFloat(header, side)
	header = varint.AppendUint(header, uint64(depth))

	scratch := buildPool.Get().(*buildScratch)
	occ, counts, order := buildAndSerialize(scratch, points, cube.Min, side, depth, opts.Parallel)
	enc.DecodedOrder = order

	// The two output streams are independent; the occupancy and count
	// coders run concurrently when parallelism is on, and each stream
	// additionally splits into opts.Shards independent shards.
	entStart := time.Now()
	var occStream, countStream []byte
	encodeOcc := func() []byte {
		var legacy []byte
		if opts.Shards > 1 {
			legacy = arith.AppendCompressCodesSharded(nil, occ, 256, opts.Shards, opts.Parallel)
		} else {
			legacy = compressOccupancy(occ)
		}
		if !opts.Context {
			return legacy
		}
		// v5 dialect: a method marker precedes the stream, and the smaller
		// of the context-modeled and legacy codings wins. Ties go to
		// legacy, so guarded output degenerates to exactly the v2/v3 bytes
		// plus one marker.
		ctx := ctxmodel.AppendOcc(make([]byte, 1, 64+len(legacy)), occ, depth, opts.Shards, opts.Parallel)
		if len(ctx) < len(legacy)+1 {
			ctx[0] = occMethodCtx
			return ctx
		}
		return append([]byte{occMethodLegacy}, legacy...)
	}
	encodeCounts := func() []byte {
		if opts.Shards > 1 {
			return arith.AppendCompressUintsSharded(nil, counts, opts.Shards, opts.Parallel)
		}
		return arith.AppendCompressUints(nil, counts)
	}
	if opts.Parallel {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			countStream = encodeCounts()
		}()
		occStream = encodeOcc()
		wg.Wait()
	} else {
		occStream = encodeOcc()
		countStream = encodeCounts()
	}
	enc.EntropyTime = time.Since(entStart)

	out := header
	out = varint.AppendUint(out, uint64(len(occ)))
	out = varint.AppendUint(out, uint64(len(occStream)))
	out = append(out, occStream...)
	out = varint.AppendUint(out, uint64(len(counts)))
	out = varint.AppendUint(out, uint64(len(countStream)))
	out = append(out, countStream...)
	buildPool.Put(scratch)
	enc.Data = out
	return enc, nil
}

// depthFor returns the number of subdivision levels needed for leaf side
// lengths of at most 2q.
func depthFor(side, q float64) int {
	if side <= 2*q {
		return 0
	}
	d := math.Ceil(math.Log2(side / (2 * q)))
	if math.IsNaN(d) || d < 0 {
		return 0
	}
	if d > maxDepth {
		return maxDepth
	}
	return int(d)
}

// parallelLevelMin is the span count above which a level's occupancy pass
// fans out; small top levels stay serial to skip the fork-join overhead.
const parallelLevelMin = 16

// buildAndSerialize performs the breadth-first construction on pooled
// scratch, returning the occupancy code sequence, the per-leaf point counts
// (in leaf emission order), and the decoded-order mapping. occ and counts
// alias the scratch and are only valid until it is returned to the pool;
// order is freshly allocated (it leaves Encode as DecodedOrder).
//
// With parallel set, each level splits into a parallel occupancy pass —
// every node's octant counts, point scatter, and code byte touch only that
// node's range of the index arrays, so nodes shard freely — and a serial
// stitch appending the per-node results to the occupancy sequence and next
// level in node order. The output is identical to the serial construction.
func buildAndSerialize(s *buildScratch, points geom.PointCloud, min geom.Point, side float64, depth int, parallel bool) (occ []byte, counts []uint64, order []int) {
	n := len(points)
	src := grow(s.idx[0], n)
	dst := grow(s.idx[1], n)
	s.octant = grow(s.octant, n)
	for i := range src {
		src[i] = int32(i)
	}
	half := side / 2
	s.cur = append(s.cur[:0], span{start: 0, end: n, center: min.Add(geom.Point{X: half, Y: half, Z: half})})
	s.occ = s.occ[:0]

	splitNode := func(nd span, count *[8]int) {
		// Pass 1: octant of every point, and per-child counts.
		for _, idx := range src[nd.start:nd.end] {
			c := childIndex(points[idx], nd.center)
			s.octant[idx] = uint8(c)
			count[c]++
		}
		// Prefix offsets inside the node's range, then scatter.
		var pos [8]int
		pos[0] = nd.start
		for c := 1; c < 8; c++ {
			pos[c] = pos[c-1] + count[c-1]
		}
		for _, idx := range src[nd.start:nd.end] {
			c := s.octant[idx]
			dst[pos[c]] = idx
			pos[c]++
		}
	}

	for d := 0; d < depth; d++ {
		next := s.next[:0]
		qh := half / 2
		if parallel && len(s.cur) >= parallelLevelMin {
			nodes := s.cur
			cnts := grow(s.counts8, 8*len(nodes))
			par.Chunks(len(nodes), func(w, lo, hi int) {
				for k := lo; k < hi; k++ {
					var count [8]int
					splitNode(nodes[k], &count)
					for c := 0; c < 8; c++ {
						cnts[8*k+c] = int32(count[c])
					}
				}
			})
			s.counts8 = cnts
			// Serial stitch: emit codes and child spans in node order.
			for k, nd := range nodes {
				off := nd.start
				var code byte
				for c := 0; c < 8; c++ {
					cv := int(cnts[8*k+c])
					if cv == 0 {
						continue
					}
					code |= 1 << uint(c)
					next = append(next, span{
						start:  off,
						end:    off + cv,
						center: childCenter(nd.center, qh, c),
					})
					off += cv
				}
				s.occ = append(s.occ, code)
			}
		} else {
			for _, nd := range s.cur {
				var count [8]int
				splitNode(nd, &count)
				off := nd.start
				var code byte
				for c := 0; c < 8; c++ {
					if count[c] == 0 {
						continue
					}
					code |= 1 << uint(c)
					next = append(next, span{
						start:  off,
						end:    off + count[c],
						center: childCenter(nd.center, qh, c),
					})
					off += count[c]
				}
				s.occ = append(s.occ, code)
			}
		}
		s.next = s.cur[:0]
		s.cur = next
		src, dst = dst, src
		half = qh
	}
	s.idx[0], s.idx[1] = src, dst

	order = make([]int, 0, n)
	s.counts = s.counts[:0]
	for _, leaf := range s.cur {
		s.counts = append(s.counts, uint64(leaf.end-leaf.start))
		for _, idx := range src[leaf.start:leaf.end] {
			order = append(order, int(idx))
		}
	}
	return s.occ, s.counts, order
}

// childIndex selects the octant of p relative to the cell center: bit 0 for
// x, bit 1 for y, bit 2 for z.
func childIndex(p, center geom.Point) int {
	c := 0
	if p.X >= center.X {
		c |= 1
	}
	if p.Y >= center.Y {
		c |= 2
	}
	if p.Z >= center.Z {
		c |= 4
	}
	return c
}

// childCenter returns the center of octant c of a cell centered at center
// with quarter side qh.
func childCenter(center geom.Point, qh float64, c int) geom.Point {
	off := geom.Point{X: -qh, Y: -qh, Z: -qh}
	if c&1 != 0 {
		off.X = qh
	}
	if c&2 != 0 {
		off.Y = qh
	}
	if c&4 != 0 {
		off.Z = qh
	}
	return center.Add(off)
}

func compressOccupancy(occ []byte) []byte {
	e := arith.GetEncoder()
	m := arith.GetModel(256)
	for _, code := range occ {
		e.Encode(m, int(code))
	}
	out := e.AppendFinish(nil)
	arith.PutModel(m)
	arith.PutEncoder(e)
	return out
}

// Decode reconstructs the point cloud from a stream produced by Encode.
func Decode(data []byte) (geom.PointCloud, error) {
	return DecodeLimited(data, nil)
}

// DecodeOptions selects the stream dialect and resources of one decode.
type DecodeOptions struct {
	// Budget charges decoded points, symbols, and nodes; nil is unlimited.
	Budget *declimits.Budget
	// Sharded declares that the entropy streams use the container v3
	// sharded framing. The container records this per section; it is not
	// inferred from the payload.
	Sharded bool
	// BlockPack declares that the count stream uses the blockpack codec in
	// the shard framing (the legacy container v4 dialect, decoded but no
	// longer emitted). Implies the sharded framing for the occupancy
	// stream.
	BlockPack bool
	// Parallel decodes the shards of a sharded stream concurrently. It has
	// no effect on unsharded streams, and none on a context-coded
	// occupancy stream (the context replay is sequential by construction).
	Parallel bool
	// Context declares that the occupancy stream starts with a one-byte
	// method marker (container v5): occMethodLegacy keeps the dialect the
	// other options select, occMethodCtx is the ctxmodel coding.
	Context bool
}

// DecodeLimited is Decode charging decoded points, occupancy symbols, and
// tree nodes against b. A nil budget is unlimited. Panics on hostile bytes
// are recovered into ErrCorrupt-wrapped errors.
func DecodeLimited(data []byte, b *declimits.Budget) (geom.PointCloud, error) {
	return DecodeWith(data, DecodeOptions{Budget: b})
}

// DecodeWith is Decode with explicit options.
func DecodeWith(data []byte, opts DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	b := opts.Budget
	n, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("octree: point count: %w", err)
	}
	data = data[used:]
	if n == 0 {
		return geom.PointCloud{}, nil
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: point count overflow", ErrCorrupt)
	}
	if err := b.Points(int64(n)); err != nil {
		return nil, err
	}
	var min geom.Point
	var side float64
	if min.X, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if min.Y, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if min.Z, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if side, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if side < 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("%w: invalid cube side %v", ErrCorrupt, side)
	}
	depth64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("octree: depth: %w", err)
	}
	data = data[used:]
	if depth64 > maxDepth {
		return nil, fmt.Errorf("%w: depth %d exceeds limit", ErrCorrupt, depth64)
	}
	depth := int(depth64)

	occLen, occStream, data, err := readSection(data, "occupancy")
	if err != nil {
		return nil, err
	}
	countLen, countStream, _, err := readSection(data, "counts")
	if err != nil {
		return nil, err
	}
	// Every leaf holds at least one point, so a counts section longer than
	// the point total is corrupt; reject before decoding countLen symbols.
	if uint64(countLen) > n {
		return nil, fmt.Errorf("%w: %d leaf counts for %d points", ErrCorrupt, countLen, n)
	}

	ctxOcc := false
	if opts.Context {
		if len(occStream) < 1 {
			return nil, fmt.Errorf("%w: missing occupancy method marker", ErrCorrupt)
		}
		switch occStream[0] {
		case occMethodLegacy:
		case occMethodCtx:
			ctxOcc = true
		default:
			return nil, fmt.Errorf("%w: unknown occupancy method %d", ErrCorrupt, occStream[0])
		}
		occStream = occStream[1:]
	}

	var occ []byte
	var counts []uint64
	switch {
	case ctxOcc:
		occ, err = ctxmodel.DecodeOcc(occStream, occLen, depth, b)
	case opts.Sharded || opts.BlockPack:
		occ, err = arith.DecompressCodesShardedLimited(occStream, occLen, 256, b, opts.Parallel)
	default:
		occ, err = decompressOccupancy(occStream, occLen, b)
	}
	if err != nil {
		return nil, fmt.Errorf("octree: occupancy: %w", err)
	}
	if opts.BlockPack {
		counts, err = blockpack.UnpackUint64Sharded(countStream, countLen, b, opts.Parallel)
	} else if opts.Sharded {
		counts, err = arith.DecompressUintsShardedLimited(countStream, countLen, b, opts.Parallel)
	} else {
		counts, err = arith.DecompressUintsLimited(countStream, countLen, b)
	}
	if err != nil {
		return nil, fmt.Errorf("octree: counts: %w", err)
	}

	leaves, err := rebuildLeaves(occ, min, side, depth, b)
	if err != nil {
		return nil, err
	}
	if len(leaves) != len(counts) {
		return nil, fmt.Errorf("%w: %d leaves but %d counts", ErrCorrupt, len(leaves), len(counts))
	}
	out := make(geom.PointCloud, 0, clampCap(n))
	for i, c := range leaves {
		cnt := counts[i]
		// Compare against the remaining budget; summing cnt into the
		// running total first could wrap uint64 for adversarial counts.
		if cnt == 0 || cnt > n-uint64(len(out)) {
			return nil, fmt.Errorf("%w: leaf counts disagree with point total", ErrCorrupt)
		}
		for k := uint64(0); k < cnt; k++ {
			out = append(out, c)
		}
	}
	if uint64(len(out)) != n {
		return nil, fmt.Errorf("%w: decoded %d points, header says %d", ErrCorrupt, len(out), n)
	}
	return out, nil
}

// rebuildScratch holds the two ping-pong center slices of the decode-side
// breadth-first replay.
type rebuildScratch struct {
	cur, next []geom.Point
}

var rebuildPool = sync.Pool{New: func() any { return new(rebuildScratch) }}

// rebuildLeaves replays the breadth-first subdivision and returns the leaf
// centers in emission order. All cells of one level share the same half
// side length, so the replay tracks centers only. The returned slice is
// freshly allocated; the working levels come from a pool.
func rebuildLeaves(occ []byte, min geom.Point, side float64, depth int, b *declimits.Budget) ([]geom.Point, error) {
	s := rebuildPool.Get().(*rebuildScratch)
	defer rebuildPool.Put(s)
	half := side / 2
	level := append(s.cur[:0], min.Add(geom.Point{X: half, Y: half, Z: half}))
	next := s.next[:0]
	pos := 0
	for d := 0; d < depth; d++ {
		next = next[:0]
		qh := half / 2
		for _, center := range level {
			if pos >= len(occ) {
				s.cur, s.next = level, next
				return nil, fmt.Errorf("%w: occupancy stream too short", ErrCorrupt)
			}
			code := occ[pos]
			pos++
			if code == 0 {
				s.cur, s.next = level, next
				return nil, fmt.Errorf("%w: empty occupancy code", ErrCorrupt)
			}
			for c := 0; c < 8; c++ {
				if code&(1<<uint(c)) != 0 {
					next = append(next, childCenter(center, qh, c))
				}
			}
		}
		if err := b.Nodes(int64(len(next))); err != nil {
			s.cur, s.next = level, next
			return nil, err
		}
		level, next = next, level
		half = qh
	}
	s.cur, s.next = level, next
	if pos != len(occ) {
		return nil, fmt.Errorf("%w: %d unused occupancy codes", ErrCorrupt, len(occ)-pos)
	}
	centers := make([]geom.Point, len(level))
	copy(centers, level)
	return centers, nil
}

// clampCap bounds a header-declared element count before it is used as an
// allocation capacity, so a corrupt header cannot trigger a huge up-front
// allocation. Decoding still appends past the clamp when the stream really
// carries that many elements.
func clampCap(n uint64) int {
	const maxPrealloc = 1 << 22
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

func decompressOccupancy(stream []byte, n int, b *declimits.Budget) ([]byte, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	d := arith.GetDecoder(stream)
	m := arith.GetModel(256)
	out := make([]byte, 0, clampCap(uint64(n)))
	for i := 0; i < n; i++ {
		sym, err := d.Decode(m)
		if err != nil {
			arith.PutModel(m)
			arith.PutDecoder(d)
			return nil, fmt.Errorf("octree: occupancy %d/%d: %w", i, n, err)
		}
		out = append(out, byte(sym))
	}
	arith.PutModel(m)
	arith.PutDecoder(d)
	return out, nil
}

// readSection reads "elementCount, byteLength, bytes" written by Encode.
func readSection(data []byte, name string) (count int, payload, rest []byte, err error) {
	c, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("octree: %s count: %w", name, err)
	}
	data = data[used:]
	l, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("octree: %s length: %w", name, err)
	}
	data = data[used:]
	if l > uint64(len(data)) {
		return 0, nil, nil, fmt.Errorf("%w: %s section truncated", ErrCorrupt, name)
	}
	if c > uint64(math.MaxInt32) {
		return 0, nil, nil, fmt.Errorf("%w: %s count overflow", ErrCorrupt, name)
	}
	return int(c), data[:l], data[l:], nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func readFloat(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated float", ErrCorrupt)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}
