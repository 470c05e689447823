package cluster

import (
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// TestParallelMatchesSerial: on one HDL-64E frame per scene, both parallel
// classifiers must produce exactly the serial result. CellBased runs on
// the points within 35 m, as in TestApproximateAgreesWithExact, to keep the
// exact method fast.
func TestParallelMatchesSerial(t *testing.T) {
	for _, kind := range lidar.AllScenes {
		scene, err := lidar.NewScene(kind, 3)
		if err != nil {
			t.Fatal(err)
		}
		full := lidar.HDL64E().Simulate(scene, 3)
		var near geom.PointCloud
		for _, pt := range full {
			if pt.Norm() <= 35 {
				near = append(near, pt)
			}
		}
		for _, c := range []struct {
			name     string
			classify func(geom.PointCloud, Params) Result
			pc       geom.PointCloud
		}{
			{"approximate", Approximate, full},
			{"cellbased", CellBased, near},
		} {
			t.Run(string(kind)+"/"+c.name, func(t *testing.T) {
				params := DefaultParams(0.02)
				serial := c.classify(c.pc, params)
				params.Parallel = true
				parallel := c.classify(c.pc, params)
				if serial.NumDense != parallel.NumDense || serial.NumDenseCells != parallel.NumDenseCells {
					t.Fatalf("counts differ: %d/%d vs %d/%d",
						serial.NumDense, serial.NumDenseCells, parallel.NumDense, parallel.NumDenseCells)
				}
				for i := range serial.Dense {
					if serial.Dense[i] != parallel.Dense[i] {
						t.Fatalf("classification differs at point %d", i)
					}
				}
			})
		}
	}
}
