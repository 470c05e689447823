package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"dbgc"
)

// encode-hdl64 inputs: eight passes through the six scenes, compressed
// round-robin for the whole run. Many scene layouts per run keep the
// medians from depending on one seed's layouts.
const (
	encodePasses = 8
	// encodeMinSamples gives compress_ms_p90 ten samples beyond it.
	encodeMinSamples = 100
)

// allocCounter reads the cumulative heap allocation count without
// stopping the world, so it can bracket single calls in the traced run.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// compressed is one distinct encoder output for a drive frame, kept for
// verification after the timed loop. Repeats of the same frame that
// produce identical bytes and mapping share the entry.
type compressed struct {
	frame   int
	data    []byte
	mapping []int32
	times   int
}

// outputKey identifies an encoder output: frame index, bytes and mapping.
func outputKey(frame int, data []byte, mapping []int32) [32]byte {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(frame))
	h.Write(b[:])
	h.Write(data)
	buf := make([]byte, 0, 4*len(mapping))
	for _, m := range mapping {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	}
	h.Write(buf)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// verifyCompressed is the encode-hdl64 correctness gate: the frame decodes
// (under the production decode limits) to the original point count and
// every point lies within the error bound under the encoder's mapping.
func verifyCompressed(orig dbgc.PointCloud, data []byte, mapping []int32) error {
	dec, err := dbgc.DecompressWith(data, dbgc.DecompressOptions{Limits: dbgc.DefaultDecodeLimits()})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if len(dec) != len(orig) {
		return fmt.Errorf("decoded %d points, compressed %d", len(dec), len(orig))
	}
	if _, err := dbgc.VerifyErrorBound(orig, dec, mapping, q); err != nil {
		return err
	}
	return nil
}

// stageSpans records the Stats stage durations of one compress call as
// child spans of the call, laid out in pipeline order from its start
// (serial encoding runs the stages one after another), and checks that
// they fit inside the call.
func stageSpans(tr *tracer, key string, start, end time.Time, st *dbgc.Stats, allocs uint64) error {
	root := span{Trace: key, Name: "core.compress", Start: tr.at(start), End: tr.at(end), Counts: map[string]float64{
		"bytes.dense": float64(st.BytesDense), "bytes.sparse": float64(st.BytesSparse),
		"bytes.outlier": float64(st.BytesOutlier), "bytes.total": float64(st.BytesTotal),
		"points": float64(st.NumPoints), "allocs": float64(allocs),
	}}
	tr.add(root)
	cursor := root.Start
	stage := func(name string, d time.Duration) span {
		s := span{Trace: key, Name: name, Parent: "core.compress", Start: cursor, End: cursor + int64(d)}
		cursor = s.End
		tr.add(s)
		return s
	}
	stage("cluster", st.DEN)
	oct := stage("octree", st.OCT)
	tr.add(span{Trace: key, Name: "octree.entropy", Parent: "octree", Start: oct.Start, End: oct.Start + int64(st.ENT)})
	stage("sparse.convert", st.COR)
	stage("polyline", st.ORG)
	stage("sparse", st.SPA)
	stage("outlier", st.OUT)
	if sumStages := st.DEN + st.OCT + st.COR + st.ORG + st.SPA + st.OUT; sumStages > end.Sub(start) {
		return fmt.Errorf("stage sum %v exceeds compress wall time %v", sumStages, end.Sub(start))
	}
	if st.ENT > st.OCT {
		return fmt.Errorf("entropy time %v exceeds octree time %v", st.ENT, st.OCT)
	}
	return nil
}

func runEncode(cfg config) (*result, error) {
	frames, err := drive(cfg.Seed, encodePasses)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	ih := inputsHash(frames)
	res.Inputs = fmt.Sprintf("%x", ih)

	settle()

	// Set-up: a fresh Encoder compressing its first frame, which sizes
	// every scratch buffer; each repeat starts on another scene.
	var enc *dbgc.Encoder
	setupCPU, setupWall := make([]float64, setupRepeats), make([]float64, setupRepeats)
	for i := range setupCPU {
		runtime.GC() // every repeat starts from the same heap state
		c0, t0 := cpuTime(), time.Now()
		enc = dbgc.NewEncoder(dbgc.DefaultOptions(q))
		if _, _, err := dbgc.CompressWith(enc, frames[i%len(frames)].Points); err != nil {
			return nil, fmt.Errorf("set-up compress: %w", err)
		}
		setupCPU[i], setupWall[i] = (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
	}

	tr := res.tracer
	allocs := newAllocCounter()
	outputs := map[[32]byte]*compressed{}
	var plainMs, tracedMs, cpuMs []float64
	var busy time.Duration
	start := time.Now()
	// Every frame is compressed at least once, so ratio covers the whole
	// input set.
	for i := 0; measureFor(cfg, start, len(plainMs), encodeMinSamples) || i < len(frames); i++ {
		fi := i % len(frames)
		// Traced runs alternate traced and untraced frames, swapping the
		// parity every pass so each frame is measured both ways.
		traced := tr != nil && (i+i/len(frames))%2 == 1
		var a0 uint64
		if traced {
			a0 = allocs.read()
		}
		c0, t0 := cpuTime(), time.Now()
		data, st, err := dbgc.CompressWith(enc, frames[fi].Points)
		t1, c1 := time.Now(), cpuTime()
		var a1 uint64
		if traced {
			a1 = allocs.read()
		}
		res.Attempted++
		if err != nil {
			res.fail("frame %d (%s): compress: %v", fi, frames[fi].Scene, err)
			continue
		}
		busy += t1.Sub(t0)
		ms := msOf(t1.Sub(t0))
		if traced {
			tracedMs = append(tracedMs, ms)
			if err := stageSpans(tr, fmt.Sprintf("frame-%d", i), t0, t1, st, a1-a0); err != nil {
				res.fail("frame %d (%s): %v", fi, frames[fi].Scene, err)
				continue
			}
		} else {
			plainMs = append(plainMs, ms)
			cpuMs = append(cpuMs, msOf(c1-c0))
		}
		// Untimed bookkeeping: keep each distinct output for the gate.
		key := outputKey(fi, data, st.Mapping)
		if c, ok := outputs[key]; ok {
			c.times++
			continue
		}
		outputs[key] = &compressed{frame: fi, data: data, mapping: append([]int32(nil), st.Mapping...), times: 1}
	}

	// Correctness gate over every distinct output; a failed output fails
	// every compress call that produced it. The checks run untimed, on
	// GOMAXPROCS goroutines.
	distinct := make([]*compressed, 0, len(outputs))
	for _, c := range outputs {
		distinct = append(distinct, c)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].frame < distinct[j].frame })
	verdicts := make([]error, len(distinct))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(distinct); i += workers {
				c := distinct[i]
				verdicts[i] = verifyCompressed(frames[c.frame].Points, c.data, c.mapping)
			}
		}(w)
	}
	wg.Wait()
	var rawBytes, compBytes float64
	sceneRaw, sceneComp := map[string]float64{}, map[string]float64{}
	seenFrame := make([]bool, len(frames))
	for i, c := range distinct {
		f := frames[c.frame]
		if err := verdicts[i]; err != nil {
			res.failN(c.times, "frame %d (%s): %v", c.frame, f.Scene, err)
			continue
		}
		if !seenFrame[c.frame] {
			seenFrame[c.frame] = true
			rawBytes += float64(f.rawBytes())
			compBytes += float64(len(c.data))
			sceneRaw[string(f.Scene)] += float64(f.rawBytes())
			sceneComp[string(f.Scene)] += float64(len(c.data))
		}
	}

	res.common(setupCPU, setupWall, rawBytes/compBytes)
	if cfg.Trace {
		layers := selfTimesMs(tr.snapshot())
		for metricName, spanName := range map[string]string{
			"cluster.ms": "cluster", "octree.ms": "octree", "octree.entropy_ms": "octree.entropy",
			"sparse.convert_ms": "sparse.convert", "polyline.ms": "polyline", "sparse.ms": "sparse",
			"outlier.ms": "outlier", "core.other_ms": "core.compress",
		} {
			res.Layers[metricName] = median(layers[spanName])
		}
		counts := map[string][]float64{}
		for _, s := range tr.snapshot() {
			for k, v := range s.Counts {
				counts[k] = append(counts[k], v)
			}
		}
		for _, k := range []string{"bytes.dense", "bytes.sparse", "bytes.outlier"} {
			res.Layers[k] = median(counts[k])
		}
		res.Layers["compress.allocs_per_frame"] = median(counts["allocs"])
		for sc, raw := range sceneRaw {
			res.Layers["ratio."+sc] = raw / sceneComp[sc]
		}
		res.Layers["trace.overhead_pct"] = 100 * (median(tracedMs)/median(plainMs) - 1)
		for _, m := range perLayer {
			if v, ok := res.Layers[m.name]; ok {
				res.note(m.name, v, m.unit, 0)
			}
		}
		res.note("compress_ms_p50.untraced", median(plainMs), "ms", len(plainMs))
		res.note("compress_ms_p50.traced", median(tracedMs), "ms", len(tracedMs))
	} else {
		res.EndToEnd["cpu_ms_per_op"] = median(cpuMs)
		res.note("compress_cpu_ms_p50", median(cpuMs), "ms", len(cpuMs))
		res.latency("compress_ms_p50", "compress_ms_p90", 90, plainMs)
		res.note("compress_fps", float64(len(plainMs))/busy.Seconds(), "1/s", len(plainMs))
	}
	return res, nil
}
