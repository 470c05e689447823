package ctxmodel

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"dbgc/internal/declimits"
)

// genOcc builds a random but structurally valid breadth-first occupancy
// sequence for an octree of the given depth, with branching thinned so the
// node count stays testable.
func genOcc(rng *rand.Rand, depth int) []byte {
	occ := []byte{}
	level := 1
	for d := 0; d < depth && level > 0; d++ {
		next := 0
		for i := 0; i < level; i++ {
			var code byte
			for code == 0 {
				code = byte(rng.Intn(256)) & byte(rng.Intn(256)) // skew sparse
				if code == 0 && rng.Intn(4) == 0 {
					code = 1 << uint(rng.Intn(8))
				}
			}
			occ = append(occ, code)
			if d+1 < depth {
				for c := 0; c < 8; c++ {
					if code&(1<<uint(c)) != 0 {
						next++
					}
				}
			}
		}
		level = next
	}
	return occ
}

func TestReflectInvolution(t *testing.T) {
	for o := uint8(0); o < 8; o++ {
		for c := 0; c < 256; c++ {
			if got := Reflect(Reflect(byte(c), o), o); got != byte(c) {
				t.Fatalf("Reflect(Reflect(%#x, %d)) = %#x", c, o, got)
			}
		}
	}
	// Reflection permutes bits, so popcount is invariant.
	if Reflect(0x01, 1) != 0x02 || Reflect(0x01, 7) != 0x80 {
		t.Fatalf("reflection axes wrong: %#x %#x", Reflect(0x01, 1), Reflect(0x01, 7))
	}
}

// TestFeatureContexts pins the one occupancy context scheme: every
// (parent, octant) pair maps into [0, OccContexts), each of the 8
// parent-adjacency contexts is reachable, and the stream header declares
// feature byte 0x03 (octant reflection | parent adjacency) with 8 contexts.
func TestFeatureContexts(t *testing.T) {
	seen := make([]bool, OccContexts)
	for parent := 0; parent < 256; parent++ {
		for o := uint8(0); o < 8; o++ {
			idx := OccIndex(byte(parent), o)
			if idx < 0 || idx >= OccContexts {
				t.Fatalf("OccIndex(%#x, %d) = %d, outside [0, %d)", parent, o, idx, OccContexts)
			}
			seen[idx] = true
		}
	}
	for idx, ok := range seen {
		if !ok {
			t.Errorf("context %d unreachable", idx)
		}
	}
	// Neighbor across x of octant 0 is octant 1, across y octant 2, across z
	// octant 4.
	if OccIndex(0x02, 0) != 1 || OccIndex(0x04, 0) != 2 || OccIndex(0x10, 0) != 4 || OccIndex(0x01, 7) != 0 {
		t.Fatalf("adjacency bits wrong: %d %d %d %d", OccIndex(0x02, 0), OccIndex(0x04, 0), OccIndex(0x10, 0), OccIndex(0x01, 7))
	}
	if hdr := AppendOcc(nil, []byte{0x01}, 1, 1, false); hdr[0] != 0x03 || hdr[1] != OccContexts {
		t.Fatalf("stream header %#x %#x, want 0x03 %#x", hdr[0], hdr[1], OccContexts)
	}
}

func TestOccRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, depth := range []int{1, 2, 4, 6} {
		occ := genOcc(rng, depth)
		for _, shards := range []int{1, 4} {
			stream := AppendOcc(nil, occ, depth, shards, false)
			par := AppendOcc(nil, occ, depth, shards, true)
			if !bytes.Equal(stream, par) {
				t.Fatalf("depth %d shards %d: parallel encode differs", depth, shards)
			}
			got, err := DecodeOcc(stream, len(occ), depth, nil)
			if err != nil {
				t.Fatalf("depth %d shards %d: decode: %v", depth, shards, err)
			}
			if !bytes.Equal(got, occ) {
				t.Fatalf("depth %d shards %d: roundtrip mismatch", depth, shards)
			}
		}
	}
}

func TestOccEmpty(t *testing.T) {
	stream := AppendOcc(nil, nil, 0, 1, false)
	got, err := DecodeOcc(stream, 0, 0, nil)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d codes from empty stream", len(got))
	}
}

func TestDecodeOccCorrupt(t *testing.T) {
	occ := genOcc(rand.New(rand.NewSource(1)), 4)
	stream := AppendOcc(nil, occ, 4, 2, false)

	if _, err := DecodeOcc(nil, len(occ), 4, nil); err == nil {
		t.Error("empty stream: want error")
	}
	// Unknown feature bits.
	bad := append([]byte{0xf0}, stream[1:]...)
	if _, err := DecodeOcc(bad, len(occ), 4, nil); err == nil {
		t.Error("unknown feature bits: want error")
	}
	// Context count disagreeing with the feature mask.
	bad = append([]byte{stream[0], 0x7f}, stream[2:]...)
	if _, err := DecodeOcc(bad, len(occ), 4, nil); err == nil {
		t.Error("wrong context count: want error")
	}
	// This occ as the former multi-feature encoder wrote it (2 shards) under
	// the retired feature sets: none (0x00), octant+parent+sibling (0x07,
	// 32 contexts) and all four (0x0f, 128 contexts). Those streams decoded
	// before the single scheme and are now corrupt, as is feature byte 0x03
	// declaring 128 contexts.
	retired := map[string][]byte{
		"feats=0x00":          {0x00, 0x01, 0x01, 0x0c, 0x01, 0x91, 0x55, 0x7a, 0xf5, 0x1d, 0x4c, 0xca, 0x7c, 0xd8, 0x04, 0x56},
		"feats=0x07":          {0x07, 0x20, 0x01, 0x0b, 0x01, 0x91, 0x55, 0x70, 0x66, 0xfd, 0x9f, 0x47, 0x33, 0x1c, 0xbc},
		"feats=0x0f":          {0x0f, 0x80, 0x01, 0x01, 0x0b, 0x01, 0x91, 0x55, 0x70, 0x66, 0xfa, 0xf1, 0x0f, 0xeb, 0xdf, 0xf8},
		"feats=0x03/nctx=128": append([]byte{0x03, 0x80, 0x01}, stream[2:]...),
	}
	for name, data := range retired {
		if _, err := DecodeOcc(data, len(occ), 4, nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Truncations at every prefix must error, never panic or hang.
	for l := 0; l < len(stream); l += 7 {
		if _, err := DecodeOcc(stream[:l], len(occ), 4, nil); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
	// A context-table budget below the bank size must refuse up front.
	b := declimits.New(declimits.Limits{MaxContexts: 2})
	if _, err := DecodeOcc(stream, len(occ), 4, b); err == nil {
		t.Error("MaxContexts 2: want error")
	}
}

func TestIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 100, 5000} {
		vs := make([]int64, n)
		for i := range vs {
			switch rng.Intn(3) {
			case 0:
				vs[i] = int64(rng.Intn(7)) - 3
			case 1:
				vs[i] = int64(rng.Intn(2000)) - 1000
			default:
				vs[i] = rng.Int63() - rng.Int63()
			}
		}
		for _, shards := range []int{1, 3} {
			stream := AppendIntsCtx(nil, vs, shards, false)
			par := AppendIntsCtx(nil, vs, shards, true)
			if !bytes.Equal(stream, par) {
				t.Fatalf("n %d shards %d: parallel encode differs", n, shards)
			}
			for _, pdec := range []bool{false, true} {
				got, err := DecodeIntsCtx(stream, n, nil, pdec)
				if err != nil {
					t.Fatalf("n %d shards %d parallel %v: %v", n, shards, pdec, err)
				}
				for i := range vs {
					if got[i] != vs[i] {
						t.Fatalf("n %d shards %d: value %d = %d, want %d", n, shards, i, got[i], vs[i])
					}
				}
			}
		}
	}
}

func TestDecodeIntsCorrupt(t *testing.T) {
	vs := []int64{1, -2, 300, -40000, 5}
	stream := AppendIntsCtx(nil, vs, 1, false)
	for l := 0; l < len(stream); l++ {
		if _, err := DecodeIntsCtx(stream[:l], len(vs), nil, false); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
	b := declimits.New(declimits.Limits{MaxContexts: 4})
	if _, err := DecodeIntsCtx(stream, len(vs), b, false); err == nil {
		t.Error("MaxContexts 4: want error")
	}
}

// TestBankSeeding checks the snapshot-seeding lockstep directly: symbols
// coded through a bank under a context sequence decode back identically.
func TestBankSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]int, 4096)
	ctxs := make([]int, len(syms))
	for i := range syms {
		syms[i] = rng.Intn(256)
		ctxs[i] = rng.Intn(8)
	}
	// Import cycle keeps the arith coder here; exercise via the public API.
	stream := func() []byte {
		vs := make([]int64, len(syms))
		for i, s := range syms {
			vs[i] = int64(s - 128)
		}
		return AppendIntsCtx(nil, vs, 2, false)
	}()
	got, err := DecodeIntsCtx(stream, len(syms), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range syms {
		if got[i] != int64(s-128) {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], s-128)
		}
	}
}

// TestBankPooling bounds steady-state allocations of the pooled bank and
// replay scratch: after warmup, an occupancy encode/decode cycle must not
// allocate bank tables or replay arrays anew (the PR 2/5 scratch-reuse
// contract).
func TestBankPooling(t *testing.T) {
	occ := genOcc(rand.New(rand.NewSource(5)), 5)
	stream := AppendOcc(nil, occ, 5, 2, false)
	dst := make([]byte, 0, 2*len(stream))
	// Warm the pools.
	for i := 0; i < 3; i++ {
		AppendOcc(dst[:0], occ, 5, 2, false)
	}
	allocs := testing.AllocsPerRun(20, func() {
		AppendOcc(dst[:0], occ, 5, 2, false)
	})
	// The shard framing allocates a few slice headers per encode; the
	// bound is that models/tables (1KiB+ each) are NOT rebuilt: with 9
	// fresh 257-entry tables per run this would exceed 25 allocations.
	if allocs > 16 {
		t.Errorf("AppendOcc allocates %.1f objects/run, want <= 16 (bank tables not pooled?)", allocs)
	}
	decAllocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeOcc(stream, len(occ), 5, nil); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 16 {
		t.Errorf("DecodeOcc allocates %.1f objects/run, want <= 16", decAllocs)
	}
	bankAllocs := testing.AllocsPerRun(50, func() {
		b := GetBank(8, 256)
		PutBank(b)
	})
	if bankAllocs != 0 {
		t.Errorf("GetBank/PutBank allocates %.1f objects/run, want 0", bankAllocs)
	}
}
