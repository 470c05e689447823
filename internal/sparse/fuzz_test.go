package sparse

import (
	"testing"

	"dbgc/internal/geom"
)

// FuzzDecode hammers the sparse decoder with mutated group streams; it
// must never panic. The legacy blockpacked seed, which the encoder can no
// longer produce, lives in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	pc := geom.PointCloud{
		{X: 5, Y: 0, Z: -1}, {X: 5.02, Y: 0.03, Z: -1}, {X: 5.04, Y: 0.06, Z: -1},
		{X: 5.06, Y: 0.09, Z: -1}, {X: 20, Y: 3, Z: 0},
	}
	enc, err := Encode(pc, []int32{0, 1, 2, 3, 4}, Options{Q: 0.02, Groups: 2, UTheta: 0.003, UPhi: 0.007})
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := Encode(pc, []int32{0, 1, 2, 3, 4},
		Options{Q: 0.02, Groups: 2, UTheta: 0.003, UPhi: 0.007, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	shardedCtx, err := Encode(pc, []int32{0, 1, 2, 3, 4},
		Options{Q: 0.02, Groups: 2, UTheta: 0.003, UPhi: 0.007, Shards: 2, Context: true})
	if err != nil {
		f.Fatal(err)
	}
	ctx, err := Encode(pc, []int32{0, 1, 2, 3, 4},
		Options{Q: 0.02, Groups: 2, UTheta: 0.003, UPhi: 0.007, Context: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Data)
	f.Add(enc.Data[:len(enc.Data)/3])
	f.Add(sharded.Data)
	f.Add(shardedCtx.Data)
	f.Add(ctx.Data)
	f.Add(ctx.Data[:2*len(ctx.Data)/3])
	// Garble the per-group methods byte region so unknown method markers and
	// reserved bits get exercised.
	mut := append([]byte(nil), ctx.Data...)
	if len(mut) > 16 {
		mut[16] ^= 0xff
	}
	f.Add(mut)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		// The sharded, blockpack, and context flags ride in the stream
		// header, so plain Decode already covers the v3-v5 dialects; Salvage
		// additionally exercises the per-group CRC recovery path.
		_, _ = Decode(b)
		_, _ = DecodeWith(b, DecodeOptions{Salvage: true})
	})
}
