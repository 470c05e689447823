package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// cellSet is a window-query input: occupied cells as sorted canonical keys
// with populations, plus the same cells by coordinate for the oracle.
type cellSet struct {
	keys  []uint64
	cnt   []int32
	coord [][3]int64
	pop   map[[3]int64]int32
}

func newCellSet(pop map[[3]int64]int32, pad int64) cellSet {
	cs := cellSet{pop: pop}
	for c := range pop {
		cs.coord = append(cs.coord, c)
	}
	sort.Slice(cs.coord, func(i, j int) bool {
		a, b := cs.coord[i], cs.coord[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, c := range cs.coord {
		cs.keys = append(cs.keys, packPadded(c[0], c[1], c[2], pad))
		cs.cnt = append(cs.cnt, pop[c])
	}
	return cs
}

// bruteWindow sums pop over the (2m+1)³ cells around c by direct lookup.
func bruteWindow(pop map[[3]int64]int32, c [3]int64, m int64) int32 {
	var t int32
	for dx := -m; dx <= m; dx++ {
		for dy := -m; dy <= m; dy++ {
			for dz := -m; dz <= m; dz++ {
				t += pop[[3]int64{c[0] + dx, c[1] + dy, c[2] + dz}]
			}
		}
	}
	return t
}

// checkWindows compares windowSums and windowReach, serial and parallel,
// against the brute-force count on every stride-th cell. marked selects
// the cells of cs that form the reach query's marked set.
func checkWindows(t *testing.T, cs cellSet, marked func(j int) bool, m int64, stride int) {
	t.Helper()
	markedPop := map[[3]int64]int32{}
	var markedKeys []uint64
	for j, c := range cs.coord {
		if marked(j) {
			markedPop[c] = 1
			markedKeys = append(markedKeys, cs.keys[j])
		}
	}
	wantSums := map[int]int32{}
	wantReach := map[int]bool{}
	for j := 0; j < len(cs.keys); j += stride {
		wantSums[j] = bruteWindow(cs.pop, cs.coord[j], m)
		wantReach[j] = bruteWindow(markedPop, cs.coord[j], m) > 0
	}
	for _, parallel := range []bool{false, true} {
		sums := windowSums(cs.keys, cs.cnt, m, parallel, nil)
		reach := windowReach(cs.keys, markedKeys, m, parallel, nil)
		if len(sums) != len(cs.keys) || len(reach) != len(cs.keys) {
			t.Fatalf("parallel=%v: got %d sums, %d reach flags for %d cells",
				parallel, len(sums), len(reach), len(cs.keys))
		}
		for j, want := range wantSums {
			if sums[j] != want {
				t.Fatalf("parallel=%v m=%d: windowSums at cell %v = %d, want %d", parallel, m, cs.coord[j], sums[j], want)
			}
			if reach[j] != wantReach[j] {
				t.Fatalf("parallel=%v m=%d: windowReach at cell %v = %v, want %v", parallel, m, cs.coord[j], reach[j], wantReach[j])
			}
		}
	}
}

// TestWindowSumsBruteForce pins the window machinery to a direct
// (2m+1)³ count on synthetic edge cases and on one HDL-64E frame per
// scene.
func TestWindowSumsBruteForce(t *testing.T) {
	every := func(n int) func(int) bool { return func(j int) bool { return j%n == 0 } }
	none := func(int) bool { return false }

	for _, m := range []int64{1, 2, 5} {
		for _, pad := range []int64{m, m + 3} {
			t.Run(fmt.Sprintf("random/m=%d/pad=%d", m, pad), func(t *testing.T) {
				rng := rand.New(rand.NewSource(m*100 + pad))
				pop := map[[3]int64]int32{}
				for i := 0; i < 600; i++ {
					c := [3]int64{rng.Int63n(24), rng.Int63n(24), rng.Int63n(24)}
					pop[c] += int32(1 + rng.Intn(5))
				}
				// The min corner sits on the padding edge; the max-z
				// cell is the top of the z range.
				pop[[3]int64{0, 0, 0}] += 2
				pop[[3]int64{0, 5, 40}] += 3
				pop[[3]int64{3, 0, 40}]++
				checkWindows(t, newCellSet(pop, pad), every(7), m, 1)
			})
		}

		t.Run(fmt.Sprintf("column-gaps/m=%d", m), func(t *testing.T) {
			// Column groups further apart than the window width, so a
			// query column's window can be empty.
			rng := rand.New(rand.NewSource(m))
			pop := map[[3]int64]int32{}
			for _, x0 := range []int64{0, 3*m + 2, 6*m + 5, 6*m + 6, 12 * m} {
				for i := 0; i < 80; i++ {
					c := [3]int64{x0 + rng.Int63n(2), rng.Int63n(10), rng.Int63n(10)}
					pop[c]++
				}
			}
			checkWindows(t, newCellSet(pop, m), every(3), m, 1)
		})

		t.Run(fmt.Sprintf("single-column/m=%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(m + 50))
			pop := map[[3]int64]int32{}
			for i := 0; i < 200; i++ {
				pop[[3]int64{5, rng.Int63n(15), rng.Int63n(15)}] += int32(1 + rng.Intn(3))
			}
			checkWindows(t, newCellSet(pop, m), every(4), m, 1)
		})

		t.Run(fmt.Sprintf("empty-marked/m=%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(m + 90))
			pop := map[[3]int64]int32{}
			for i := 0; i < 200; i++ {
				pop[[3]int64{rng.Int63n(8), rng.Int63n(8), rng.Int63n(8)}]++
			}
			checkWindows(t, newCellSet(pop, m), none, m, 1)
		})
	}

	t.Run("disjoint-sources", func(t *testing.T) {
		// boxSums with sources in x-columns no query holds, including
		// columns outside every query's window.
		const m, pad = 1, 1
		rng := rand.New(rand.NewSource(7))
		srcPop, qPop := map[[3]int64]int32{}, map[[3]int64]int32{}
		for i := 0; i < 300; i++ {
			srcPop[[3]int64{rng.Int63n(36), rng.Int63n(8), rng.Int63n(8)}] += int32(1 + rng.Intn(4))
			qPop[[3]int64{5*rng.Int63n(7) + 3, rng.Int63n(8), rng.Int63n(8)}]++
		}
		src, q := newCellSet(srcPop, pad), newCellSet(qPop, pad)
		for _, parallel := range []bool{false, true} {
			got := boxSums(src.keys, src.cnt, q.keys, m, parallel, nil)
			for j, c := range q.coord {
				if want := bruteWindow(srcPop, c, m); got[j] != want {
					t.Fatalf("parallel=%v: boxSums at cell %v = %d, want %d", parallel, c, got[j], want)
				}
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		if got := windowSums(nil, nil, 2, false, nil); len(got) != 0 {
			t.Fatalf("windowSums on no cells returned %d sums", len(got))
		}
		if got := windowReach(nil, []uint64{packPadded(0, 0, 0, 2)}, 2, false, nil); len(got) != 0 {
			t.Fatalf("windowReach on no cells returned %d flags", len(got))
		}
	})

	// HDL-64E frames at the encoder's cell size and window radius. Every
	// 97th cell is checked; marked cells are those holding at least three
	// points, a density-like subset independent of the code under test.
	p := DefaultParams(0.02)
	side := 2 * p.Q
	m := int64(math.Ceil(p.Eps() / side))
	for _, kind := range lidar.AllScenes {
		t.Run(fmt.Sprintf("hdl64/%v", kind), func(t *testing.T) {
			scene, err := lidar.NewScene(kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			pc := lidar.HDL64E().Simulate(scene, 1)
			min := geom.Bounds(pc).Min
			pop := map[[3]int64]int32{}
			for _, pt := range pc {
				pop[[3]int64{
					int64((pt.X - min.X) / side),
					int64((pt.Y - min.Y) / side),
					int64((pt.Z - min.Z) / side),
				}]++
			}
			cs := newCellSet(pop, m)
			checkWindows(t, cs, func(j int) bool { return cs.cnt[j] >= 3 }, m, 97)
		})
	}
}
