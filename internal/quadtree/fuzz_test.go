package quadtree

import (
	"testing"

	"dbgc/internal/declimits"
)

// FuzzDecode hammers the quadtree decoder with mutated streams under a
// small decode budget; it must never panic or allocate past the budget. The
// legacy blockpacked seed, which the encoder can no longer produce, lives in
// testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	pts := []Point2{{X: 1, Y: 2}, {X: -3, Y: 0.5}, {X: 4, Y: -1}, {X: 0.1, Y: 0.2}}
	enc, err := Encode(pts, 0.02)
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := EncodeWith(pts, 0.02, EncodeOptions{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Data)
	f.Add(enc.Data[:len(enc.Data)/2])
	f.Add(sharded.Data)
	f.Add(sharded.Data[:len(sharded.Data)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lim := declimits.Limits{
			MaxPoints: 1 << 16, MaxNodes: 1 << 20, MemBudget: 32 << 20,
		}
		_, _ = DecodeLimited(data, declimits.New(lim))
		// The v3/v4 dialect flags are out of band: feed every input through
		// the sharded and blockpack decoders too.
		_, _ = DecodeWith(data, DecodeOptions{Budget: declimits.New(lim), Sharded: true})
		_, _ = DecodeWith(data, DecodeOptions{Budget: declimits.New(lim), BlockPack: true})
	})
}
