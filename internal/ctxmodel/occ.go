package ctxmodel

import (
	"fmt"
	"sync"

	"dbgc/internal/arith"
	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// Context-modeled occupancy stream (container v5). The layout is:
//
//	feats   byte     feature byte, always occFeatures (0x03)
//	nctx    uvarint  context count, always OccContexts (8)
//	shards  ...      the arith shard framing over the occupancy codes
//
// Each node's context derives from structure that is already decoded when
// the symbol arrives — the parent's code (one level up) and the node's
// octant (implied by the parent's code) — so the decoder replays the
// breadth-first construction in lockstep with the arithmetic decode. The
// replay makes shard decode inherently sequential (a shard's contexts
// depend on every earlier shard's codes); the bank still resets per shard
// so the bytes match the shard-parallel encoder.

// occReplay tracks the breadth-first structural state that yields each
// node's parent code and octant. The encoder drives it over the full
// occupancy sequence up front (the tree is known); the decoder advances it
// one decoded code at a time.
type occReplay struct {
	parent []byte  // parent occupancy code per node slot
	octant []uint8 // child index within the parent per node slot

	n, depth         int
	w                int // next child slot to assign
	d                int // current level
	lvlStart, lvlEnd int
}

var replayPool = sync.Pool{New: func() any { return new(occReplay) }}

func getReplay(n, depth int) *occReplay {
	r := replayPool.Get().(*occReplay)
	r.parent = grow(r.parent, n)
	r.octant = grow(r.octant, n)
	if n > 0 {
		r.parent[0], r.octant[0] = 0, 0
	}
	r.n, r.depth = n, depth
	r.w, r.d = 1, 0
	r.lvlStart, r.lvlEnd = 0, 1
	return r
}

func putReplay(r *occReplay) { replayPool.Put(r) }

// node returns the parent code and octant of node i. Call with ascending
// i, each followed by one observe. On structurally impossible streams (a
// corrupt decode can imply fewer nodes than the header claims) both
// degrade to zero; the octree-level replay rejects such streams after the
// fact.
func (r *occReplay) node(i int) (parent byte, octant uint8) {
	for i >= r.lvlEnd && r.lvlEnd > r.lvlStart {
		r.d++
		r.lvlStart, r.lvlEnd = r.lvlEnd, r.w
	}
	if i < r.w {
		parent, octant = r.parent[i], r.octant[i]
	}
	return parent, octant
}

// observe accounts node i's code, assigning parent/octant slots to its
// children (when they are internal nodes, i.e. above the leaf level).
func (r *occReplay) observe(code byte) {
	if r.d+1 >= r.depth {
		return
	}
	for c := 0; c < 8; c++ {
		if code&(1<<uint(c)) == 0 {
			continue
		}
		if r.w >= r.n {
			return
		}
		r.parent[r.w] = code
		r.octant[r.w] = uint8(c)
		r.w++
	}
}

// AppendOcc appends the context-modeled coding of the breadth-first
// occupancy sequence occ (an octree of the given depth), sharded into
// shards independently coded shards. Each code is reflected by its octant
// and coded under its OccIndex context. The bytes depend only on
// (occ, depth, shards), never on parallel.
func AppendOcc(dst, occ []byte, depth, shards int, parallel bool) []byte {
	dst = append(dst, occFeatures)
	dst = varint.AppendUint(dst, OccContexts)

	// Structure pass: the encoder knows the whole tree, so every node's
	// parent and octant land in flat arrays the shard workers index freely.
	r := getReplay(len(occ), depth)
	for i, code := range occ {
		r.node(i)
		r.observe(code)
	}

	dst = arith.AppendSharded(dst, len(occ), shards, parallel, func(lo, hi int, out []byte) []byte {
		bank := GetBank(OccContexts, 256)
		e := arith.GetEncoder()
		for i := lo; i < hi; i++ {
			parent, octant := r.parent[i], r.octant[i]
			bank.Encode(e, OccIndex(parent, octant), int(Reflect(occ[i], octant)))
		}
		out = e.AppendFinish(out)
		arith.PutEncoder(e)
		PutBank(bank)
		return out
	})
	putReplay(r)
	return dst
}

// DecodeOcc inverts AppendOcc, decoding exactly n occupancy codes of a
// depth-level octree and charging nodes and context-table memory against b.
// A header with any other feature byte or context count is corrupt. Shards
// decode sequentially regardless of any parallel option: the context
// replay threads structural state from each shard into the next (see
// DESIGN.md §15), unlike the order-0 sharded streams.
func DecodeOcc(data []byte, n, depth int, b *declimits.Budget) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: missing feature byte", ErrCorrupt)
	}
	if data[0] != occFeatures {
		return nil, fmt.Errorf("%w: context features %#x, want %#x", ErrCorrupt, data[0], occFeatures)
	}
	data = data[1:]
	nctx, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("ctxmodel: context count: %w", err)
	}
	data = data[used:]
	if nctx != OccContexts {
		return nil, fmt.Errorf("%w: %d contexts declared, want %d", ErrCorrupt, nctx, OccContexts)
	}
	// +1 for the shared seeding model the bank always carries.
	if err := b.Contexts(OccContexts+1, ModelBytes256); err != nil {
		return nil, err
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	r := getReplay(n, depth)
	defer putReplay(r)
	bank := GetBank(OccContexts, 256)
	defer PutBank(bank)
	err = arith.DecodeSharded(data, n, b, false, func(_ int, shard []byte, lo, hi int) error {
		bank.Reset()
		d := arith.GetDecoder(shard)
		defer arith.PutDecoder(d)
		for i := lo; i < hi; i++ {
			parent, octant := r.node(i)
			sym, err := bank.Decode(d, OccIndex(parent, octant))
			if err != nil {
				return fmt.Errorf("ctxmodel: occupancy %d/%d: %w", i, n, err)
			}
			code := Reflect(byte(sym), octant)
			out[i] = code
			r.observe(code)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
