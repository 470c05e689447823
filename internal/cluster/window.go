package cluster

import "sync"

// This file holds the window machinery shared by both classifiers.
// Clustering needs, for every occupied cell, the population of the
// (2m+1)³ cell window around it (core-point pruning) and whether the
// window holds a marked cell (border dilation). Both are one separable box
// sum over sorted canonical keys (boxSums), taken one axis at a time:
//
//   - x: the query cells are visited one x-column at a time. A slab holds
//     the sources of the 2m+1 columns around it as one (y, z)-sorted list
//     with summed weights; moving to the next column merges the columns
//     that enter and subtracts the ones that leave, both linear passes.
//   - y: inside the slab, the rows within m of the query row are slid into
//     a dense accumulator indexed by z. Rows enter and leave once per
//     query column; the accumulator returns to zero by subtracting what
//     was added, so it is never cleared.
//   - z: each query sums its 2m+1 accumulator entries.
//
// Nothing is sorted or hashed. The accumulator holds zmax+m+1 int32
// entries — at most 2²¹, and about 600 B for an HDL-64E frame at q = 2 cm
// — and the slab at most the sources of 2m+1 x-columns.
//
// Keys must be canonical: every axis index padded by at least m cells (see
// packPadded) so that window bounds never borrow or carry across bit
// fields and unsigned key order equals (x, y, z) order.

// packPadded packs non-negative axis indices, offset by pad cells per
// axis, into a canonical key. Pad must be at least the window radius m of
// any later window query so probes stay canonical.
func packPadded(x, y, z, pad int64) uint64 {
	return uint64((x+pad)<<(2*axisBits) | (y+pad)<<axisBits | (z + pad))
}

// Field masks of a canonical key: the z field, and the (y, z) fields that
// order cells within one x-column.
const (
	zMask  = uint64(1)<<axisBits - 1
	yzMask = uint64(1)<<(2*axisBits) - 1
)

// winScratch is one worker's slab (two ping-pong (y, z)-key lists with
// weights) and z accumulator. The accumulator is all zero between uses.
type winScratch struct {
	slab, next   []uint64
	slabW, nextW []int32
	acc          []int32
	sums, ones   []int32 // windowReach's counts and unit weights
}

var winPool = sync.Pool{New: func() any { return new(winScratch) }}

// growU64 returns s with length n, reallocating only when capacity is
// short; the contents are unspecified.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// windowSums returns, for every cell of occ (sorted canonical keys with
// per-cell populations cnt), the total population of the (2m+1)³ window
// around it, written into sums (resized as needed).
func windowSums(occ []uint64, cnt []int32, m int64, parallel bool, sums []int32) []int32 {
	return boxSums(occ, cnt, occ, m, parallel, sums)
}

// windowReach reports, for every cell of occ, whether the (2m+1)³ window
// around it contains any marked cell. marked must be sorted canonical keys.
// The result is written into reach (resized as needed).
func windowReach(occ []uint64, marked []uint64, m int64, parallel bool, reach []bool) []bool {
	if cap(reach) < len(occ) {
		reach = make([]bool, len(occ))
	}
	reach = reach[:len(occ)]
	s := winPool.Get().(*winScratch)
	s.ones = growI32(s.ones, len(marked))
	for i := range s.ones {
		s.ones[i] = 1
	}
	s.sums = boxSums(marked, s.ones, occ, m, parallel, s.sums)
	for j, v := range s.sums {
		reach[j] = v > 0
	}
	winPool.Put(s)
	return reach
}

// boxSums writes into out (resized as needed), for every query key, the
// total weight of the source keys within m cells of it along each axis.
// Both key lists must be sorted and canonical; source keys must be
// distinct, and their weights w positive. With parallel set the query keys
// shard across CPUs, each shard sliding its own slab; the result is
// identical.
func boxSums(src []uint64, w []int32, query []uint64, m int64, parallel bool, out []int32) []int32 {
	u := len(query)
	out = growI32(out, u)
	if u == 0 || len(src) == 0 {
		clear(out)
		return out
	}
	var zmax uint64
	for _, keys := range [][]uint64{src, query} {
		for _, k := range keys {
			zmax = max(zmax, k&zMask)
		}
	}
	zn := int(zmax) + int(m) + 1
	run := func(_, lo, hi int) {
		s := winPool.Get().(*winScratch)
		s.acc = growI32(s.acc, zn)
		s.sumRun(src, w, query[lo:hi], uint64(m), out[lo:hi])
		winPool.Put(s)
	}
	if parallel {
		parallelChunks(u, run)
	} else {
		run(0, 0, u)
	}
	return out
}

// sumRun computes the box sums of a non-empty run of query keys into out.
func (s *winScratch) sumRun(src []uint64, w []int32, query []uint64, m uint64, out []int32) {
	const xShift = 2 * axisBits
	acc := s.acc
	sl, sh := 0, 0 // src[sl:sh] are the sources in the slab
	s.slab, s.slabW = s.slab[:0], s.slabW[:0]
	for i := 0; i < len(query); {
		x, j := query[i]>>xShift, columnEnd(query, i)

		// Slide the slab to the x-columns [x-m, x+m]. Sources left of the
		// window that never entered it are skipped, and the whole slab
		// leaves.
		if sh < len(src) && src[sh]>>xShift < x-m {
			for sh < len(src) && src[sh]>>xShift < x-m {
				sh++
			}
			sl = sh
			s.slab, s.slabW = s.slab[:0], s.slabW[:0]
		}
		for sl < sh && src[sl]>>xShift < x-m {
			e := columnEnd(src, sl)
			s.subtract(src[sl:e], w[sl:e])
			sl = e
		}
		for sh < len(src) && src[sh]>>xShift <= x+m {
			e := columnEnd(src, sh)
			s.merge(src[sh:e], w[sh:e])
			sh = e
		}

		// Slide rows through the accumulator: slab[sub:add] are the
		// entries currently added.
		slab, slabW := s.slab, s.slabW
		sub, add := 0, 0
		for r := i; r < j; {
			y := query[r] & yzMask >> axisBits
			e := r + 1
			for e < j && query[e]&yzMask>>axisBits == y {
				e++
			}
			lo, hi := (y-m)<<axisBits, (y+m+1)<<axisBits
			for sub < add && slab[sub] < lo {
				acc[slab[sub]&zMask] -= slabW[sub]
				sub++
			}
			if sub == add {
				for add < len(slab) && slab[add] < lo {
					add++
				}
				sub = add
			}
			for add < len(slab) && slab[add] < hi {
				acc[slab[add]&zMask] += slabW[add]
				add++
			}
			for q := r; q < e; q++ {
				z := query[q] & zMask
				var t int32
				for _, v := range acc[z-m : z+m+1] {
					t += v
				}
				out[q] = t
			}
			r = e
		}
		for ; sub < add; sub++ {
			acc[slab[sub]&zMask] -= slabW[sub]
		}
		i = j
	}
}

// columnEnd returns the end of the x-column of keys that starts at i.
func columnEnd(keys []uint64, i int) int {
	x := keys[i] >> (2 * axisBits)
	e := i + 1
	for e < len(keys) && keys[e]>>(2*axisBits) == x {
		e++
	}
	return e
}

// merge adds the source column col with weights cw into the slab. Runs of
// slab entries between column keys are copied whole.
func (s *winScratch) merge(col []uint64, cw []int32) {
	a, aw := s.slab, s.slabW
	d, dw := s.next[:0], s.nextW[:0]
	i := 0
	for c, k := range col {
		k &= yzMask
		j := i
		for j < len(a) && a[j] < k {
			j++
		}
		d, dw = append(d, a[i:j]...), append(dw, aw[i:j]...)
		v := cw[c]
		if j < len(a) && a[j] == k {
			v += aw[j]
			j++
		}
		d, dw = append(d, k), append(dw, v)
		i = j
	}
	d, dw = append(d, a[i:]...), append(dw, aw[i:]...)
	s.slab, s.slabW, s.next, s.nextW = d, dw, a, aw
}

// subtract removes the source column col with weights cw from the slab,
// which holds every key of col, and drops entries whose weight reaches
// zero.
func (s *winScratch) subtract(col []uint64, cw []int32) {
	a, aw := s.slab, s.slabW
	d, dw := s.next[:0], s.nextW[:0]
	i := 0
	for c, k := range col {
		k &= yzMask
		j := i
		for a[j] != k {
			j++
		}
		d, dw = append(d, a[i:j]...), append(dw, aw[i:j]...)
		if v := aw[j] - cw[c]; v != 0 {
			d, dw = append(d, k), append(dw, v)
		}
		i = j + 1
	}
	d, dw = append(d, a[i:]...), append(dw, aw[i:]...)
	s.slab, s.slabW, s.next, s.nextW = d, dw, a, aw
}
