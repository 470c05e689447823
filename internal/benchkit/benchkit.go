// Package benchkit is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4). Each experiment function
// returns structured rows; cmd/dbgc-bench renders them, and the root
// bench_test.go exercises the same code paths under testing.B.
//
// The paper evaluates on 1000 real frames per scene; this harness defaults
// to a handful of simulated frames per configuration (adjustable), which is
// enough to reproduce every reported trend.
package benchkit

import (
	"fmt"
	"math"
	"sync"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// ErrorBounds are the q_xyz settings of Figures 9, 11, and 12: 0.06 cm to
// 2.0 cm.
var ErrorBounds = []float64{0.0006, 0.00125, 0.0025, 0.005, 0.01, 0.02}

// DefaultQ is the paper's running error bound: 2 cm, the measurement
// accuracy of the HDL-64E.
const DefaultQ = 0.02

var (
	frameMu    sync.Mutex
	frameCache = map[string]geom.PointCloud{}
)

// Frame returns a deterministic simulated frame for a scene. Frames are
// cached: experiments share them.
func Frame(kind lidar.SceneKind, seed int64) (geom.PointCloud, error) {
	key := fmt.Sprintf("%s/%d", kind, seed)
	frameMu.Lock()
	defer frameMu.Unlock()
	if pc, ok := frameCache[key]; ok {
		return pc, nil
	}
	scene, err := lidar.NewScene(kind, seed)
	if err != nil {
		return nil, err
	}
	pc := lidar.HDL64E().Simulate(scene, seed)
	frameCache[key] = pc
	return pc, nil
}

// Frames returns n deterministic frames of a scene (different layouts and
// capture seeds). Every experiment taking a frame count loads its frames
// here, so a count below 1 fails here instead of dividing by zero later.
func Frames(kind lidar.SceneKind, n int) ([]geom.PointCloud, error) {
	if n < 1 {
		return nil, fmt.Errorf("benchkit: frame count %d, need at least 1", n)
	}
	out := make([]geom.PointCloud, n)
	for i := 0; i < n; i++ {
		pc, err := Frame(kind, int64(i+1))
		if err != nil {
			return nil, err
		}
		out[i] = pc
	}
	return out, nil
}

// Ratio is the paper's compression-ratio metric: raw size (12 bytes per
// point, §4.4) over compressed size.
func Ratio(numPoints, compressed int) float64 {
	if compressed == 0 {
		return 0
	}
	return float64(numPoints*12) / float64(compressed)
}

// BandwidthMbps is the paper's bandwidth metric (§4.1): 8·f·|B| bits per
// second for f frames per second, in megabits.
func BandwidthMbps(bytesPerFrame int, fps float64) float64 {
	return 8 * fps * float64(bytesPerFrame) / 1e6
}

// mean returns the arithmetic mean of vs (0 for empty).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// sphereVolume returns the volume of a radius-r ball.
func sphereVolume(r float64) float64 { return 4.0 / 3.0 * math.Pi * r * r * r }
