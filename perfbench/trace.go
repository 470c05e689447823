package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one operation (a
// compressed frame, a decoded frame, an ingested (tenant, seq)) share a
// Trace key; Parent names the enclosing span in the same trace. Times are
// nanoseconds since the tracer started.
type span struct {
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Parent string             `json:"parent,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a span; safe for concurrent use.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// interval records the span [start, end] of the named layer.
func (t *tracer) interval(trace, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Trace: trace, Name: name, Parent: parent, Start: t.at(start), End: t.at(end)})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimesMs returns, per span name, the self time of every span with
// that name in milliseconds: its duration minus the part of its interval
// covered by its children (spans of the same trace naming it as parent).
func selfTimesMs(spans []span) map[string][]float64 {
	byTrace := make(map[string][]span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := make(map[string][]float64)
	for _, group := range byTrace {
		for _, s := range group {
			var kids [][2]int64
			for _, c := range group {
				if c.Parent == s.Name && c.Name != s.Name {
					lo, hi := max(c.Start, s.Start), min(c.End, s.End)
					if hi > lo {
						kids = append(kids, [2]int64{lo, hi})
					}
				}
			}
			out[s.Name] = append(out[s.Name], float64(s.dur()-covered(kids))/1e6)
		}
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// traceKey names the trace of one ingested frame.
func traceKey(tenant string, seq uint64) string { return fmt.Sprintf("%s/%d", tenant, seq) }
