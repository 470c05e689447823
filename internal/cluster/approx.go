package cluster

import (
	"math"
	"sync"

	"dbgc/internal/geom"
	"dbgc/internal/radix"
)

// Approximate runs the O(n) approximate clustering of §4.3. As in the
// paper, it works on the same 2q cells as the octree: points are counted
// per cell, and a cell N is dense when the total population of its
// surrounding cells — all cells within m = ⌈ε/2q⌉ steps per dimension —
// reaches the (density-equivalent, see below) threshold. Occupied sparse
// cells with a dense surrounding cell are then dilated into the dense set,
// and every point in a dense cell becomes a dense point.
//
// The pipeline sorts once: point keys are radix-sorted, giving the
// occupied cells, their populations, and the point runs for the final
// labeling in a single pass. Window populations and the dilation test are
// then separable box sums over the sorted cell keys (see window.go), linear
// in the occupied cells with no further sorting or hashing. With
// Params.Parallel the key construction and box sums shard across CPUs with
// identical results.
//
// Cells are addressed by packed 21-bit-per-axis integer keys; LiDAR scenes
// span thousands of cells per axis, far below the 2^21 limit.
func Approximate(pc geom.PointCloud, p Params) Result {
	res := Result{Dense: make([]bool, len(pc))}
	if len(pc) == 0 || p.Q <= 0 || p.K <= 0 {
		return res
	}
	side := 2 * p.Q
	min := geom.Bounds(pc).Min
	m := int64(math.Ceil(p.Eps() / side))

	// The cube window holds more volume than the ε-ball the exact method
	// counts over, so the population threshold is scaled for the two
	// methods to estimate the same density. LiDAR points lie on 2D
	// surfaces, so the captured population scales with the intersected
	// *area*: the right correction is the window/disk area ratio
	// (≈1.54 for the default k=10) rather than the cube/ball volume
	// ratio.
	windowArea := math.Pow(float64(2*m+1)*side, 2)
	ballArea := math.Pi * p.Eps() * p.Eps()
	minPts := int32(math.Ceil(float64(p.minPts()) * windowArea / ballArea))

	s := approxPool.Get().(*approxScratch)
	defer approxPool.Put(s)
	n := len(pc)
	keys := growU64(s.keys, n)
	idx := growI32(s.idx, n)
	computeKeys := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			pt := pc[i]
			keys[i] = packPadded(
				int64((pt.X-min.X)/side),
				int64((pt.Y-min.Y)/side),
				int64((pt.Z-min.Z)/side),
				m)
			idx[i] = int32(i)
		}
	}
	if p.Parallel {
		parallelChunks(n, computeKeys)
	} else {
		computeKeys(0, 0, n)
	}
	radix.Sort(keys, idx, &s.sort)

	// Run-length the sorted keys into occupied cells, populations, and
	// point-run offsets.
	occ := s.occ[:0]
	cnt := s.cnt[:0]
	runStart := s.runStart[:0]
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		occ = append(occ, keys[i])
		cnt = append(cnt, int32(j-i))
		runStart = append(runStart, int32(i))
		i = j
	}
	runStart = append(runStart, int32(n))
	u := len(occ)

	// A cell is dense when its window population reaches the threshold.
	s.sums = windowSums(occ, cnt, m, p.Parallel, s.sums)
	denseKeys := s.denseKeys[:0]
	for j := 0; j < u; j++ {
		if s.sums[j] >= minPts {
			denseKeys = append(denseKeys, occ[j])
		}
	}

	// Dilation: an occupied sparse cell whose window holds a dense cell
	// joins the dense set.
	s.reach = windowReach(occ, denseKeys, m, p.Parallel, s.reach)

	// Final labeling straight off the sorted point runs.
	var numDense int64
	di := 0
	for j := 0; j < u; j++ {
		isDense := di < len(denseKeys) && denseKeys[di] == occ[j]
		if isDense {
			di++
		}
		if isDense || s.reach[j] {
			res.NumDenseCells++
			numDense += int64(cnt[j])
			for _, pi := range idx[runStart[j]:runStart[j+1]] {
				res.Dense[pi] = true
			}
		}
	}
	res.NumDense = int(numDense)
	s.keys, s.idx, s.occ, s.cnt, s.runStart, s.denseKeys = keys, idx, occ, cnt, runStart, denseKeys
	return res
}

// approxScratch recycles the per-frame buffers of Approximate.
type approxScratch struct {
	keys      []uint64
	idx       []int32
	occ       []uint64
	cnt       []int32
	runStart  []int32
	sums      []int32
	reach     []bool
	denseKeys []uint64
	sort      radix.Scratch
}

var approxPool = sync.Pool{New: func() any { return new(approxScratch) }}
