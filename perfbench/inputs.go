package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"dbgc"
	"dbgc/internal/lidar"
)

// frame is one simulated HDL-64E capture along the seeded drive path.
type frame struct {
	Scene  lidar.SceneKind
	Points dbgc.PointCloud
}

// rawBytes is the uncompressed size the paper's ratio divides: three
// float32 coordinates per point.
func (f frame) rawBytes() int { return 12 * len(f.Points) }

// mix derives an independent seed from the workload seed and a path of
// labels (SplitMix64 finalizer over each step), so every scene, pose and
// capture draws from its own stream and inputs never depend on the order
// they are generated in.
func mix(seed int64, labels ...int64) int64 {
	x := uint64(seed)
	for _, l := range append(labels, 0) {
		x += uint64(l)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// startSpread bounds the seeded sensor position around a scene's origin,
// in meters.
const startSpread = 4.0

// drive simulates the drive path of one seed: `passes` passes through every
// scene of lidar.AllScenes, each with a fresh seeded layout and one frame
// from a seeded pose. Frames come back in drive order; generation runs on
// up to GOMAXPROCS goroutines and the result does not depend on how many.
func drive(seed int64, passes int) ([]frame, error) {
	n := passes * len(lidar.AllScenes)
	frames := make([]frame, n)
	errs := make([]error, n)
	sensor := lidar.HDL64E()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				pass, sc := int64(i/len(lidar.AllScenes)), int64(i%len(lidar.AllScenes))
				kind := lidar.AllScenes[sc]
				scene, err := lidar.NewScene(kind, mix(seed, pass, sc))
				if err != nil {
					errs[i] = err
					continue
				}
				rng := rand.New(rand.NewSource(mix(seed, pass, sc, -1)))
				pose := lidar.Pose{
					X:   (rng.Float64()*2 - 1) * startSpread,
					Y:   (rng.Float64()*2 - 1) * startSpread,
					Yaw: rng.Float64() * 2 * math.Pi,
				}
				frames[i] = frame{Scene: kind, Points: sensor.SimulateAt(scene, mix(seed, pass, sc, 1), pose)}
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return frames, nil
}

// pointsHash is the SHA-256 of a cloud's coordinates (IEEE-754 bits,
// little-endian, in order).
func pointsHash(pc dbgc.PointCloud) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 24*1024)
	for i, p := range pc {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Z))
		if len(buf) == cap(buf) || i == len(pc)-1 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// inputsHash identifies a generated input set: the hash of every frame's
// scene name and points, in order.
func inputsHash(frames []frame) [32]byte {
	h := sha256.New()
	for _, f := range frames {
		ph := pointsHash(f.Points)
		h.Write([]byte(f.Scene))
		h.Write(ph[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// compressAll compresses every frame once with its own Encoder per worker
// (DefaultOptions at q), for workloads whose input is an archive of
// compressed frames. It is input generation, not a measured operation.
func compressAll(frames []frame, q float64) ([][]byte, error) {
	out := make([][]byte, len(frames))
	errs := make([]error, len(frames))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			enc := dbgc.NewEncoder(dbgc.DefaultOptions(q))
			for i := w; i < len(frames); i += workers {
				out[i], _, errs[i] = dbgc.CompressWith(enc, frames[i].Points)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("compressing frame %d (%s): %w", i, frames[i].Scene, err)
		}
	}
	return out, nil
}
