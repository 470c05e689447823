package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
}

// boundSpec is one end-to-end metric with its regression bound: the share
// of the parent's median by which it may get worse.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict struct {
	Workload, Metric string
	Parent, Change   summary
	// Worse is the change's median relative to the parent's, signed so
	// that positive means worse.
	Worse float64
	// Wins counts pairs (matched by seed, else by order) the change won.
	Wins, Pairs int
	Outcome     string
}

// summary is the median and quartiles of one side's values.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	Spread float64 // (Q3 - Q1) / median
	bySeed map[int64]float64
	values []float64
}

func summarize(vals []float64, seeds []int64) summary {
	s := summary{N: len(vals), Median: median(vals), values: vals, bySeed: map[int64]float64{}}
	s.Q1, s.Q3 = quartiles(vals)
	s.Spread = iqr(vals) / math.Abs(s.Median)
	for i, seed := range seeds {
		s.bySeed[seed] = vals[i]
	}
	return s
}

// judge applies the comparison rules to one metric:
//   - "unresolved" when either side's spread exceeds the bound, unless
//     every change run beats every parent run;
//   - "regressed" when the change's median is worse than the parent's by
//     more than the bound;
//   - "improved" when the change wins at least 9 of 10 pairs and the
//     medians differ by more than the parent's interquartile range;
//   - "unchanged" otherwise.
func judge(b boundSpec, parent, change summary, parentSeeds, changeSeeds []int64) verdict {
	v := verdict{Metric: b.Name, Parent: parent, Change: change}
	better := func(x, y float64) bool { // x better than y
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	v.Worse = (change.Median - parent.Median) / math.Abs(parent.Median)
	if b.Better == "higher" {
		v.Worse = -v.Worse
	}
	// Pair runs by seed when both sides ran the same seeds, else by order.
	var pa, pb []float64
	for _, seed := range changeSeeds {
		if x, ok := parent.bySeed[seed]; ok {
			pa, pb = append(pa, x), append(pb, change.bySeed[seed])
		}
	}
	if len(pa) == 0 {
		n := min(len(parent.values), len(change.values))
		pa, pb = parent.values[:n], change.values[:n]
	}
	for i := range pa {
		if better(pb[i], pa[i]) {
			v.Wins++
		}
	}
	v.Pairs = len(pa)
	allBetter := len(parent.values) > 0 && len(change.values) > 0
	for _, x := range change.values {
		for _, y := range parent.values {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case (parent.Spread > b.Bound || change.Spread > b.Bound || math.IsNaN(parent.Spread) || math.IsNaN(change.Spread)) && !allBetter:
		v.Outcome = "unresolved"
	case v.Worse > b.Bound:
		v.Outcome = "regressed"
	case v.Pairs > 0 && float64(v.Wins) >= 0.9*float64(v.Pairs) && math.Abs(change.Median-parent.Median) > parent.Q3-parent.Q1:
		v.Outcome = "improved"
	default:
		v.Outcome = "unchanged"
	}
	return v
}

// readRecords loads the untraced run records of a results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareSets judges every (workload, end-to-end metric) pair of two
// result sets.
func compareSets(spec benchSpec, parent, change []record) []verdict {
	collect := func(recs []record, wl, m string) ([]float64, []int64) {
		var vals []float64
		var seeds []int64
		for _, r := range recs {
			if r.Workload != wl {
				continue
			}
			if x, ok := r.Metrics[m]; ok {
				vals, seeds = append(vals, x.Value), append(seeds, r.Seed)
			}
		}
		return vals, seeds
	}
	var out []verdict
	for _, w := range spec.Workloads {
		for _, b := range spec.EndToEnd {
			pv, ps := collect(parent, w.Name, b.Name)
			cv, cs := collect(change, w.Name, b.Name)
			if len(pv) == 0 && len(cv) == 0 {
				continue
			}
			v := judge(b, summarize(pv, ps), summarize(cv, cs), ps, cs)
			v.Workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

// compareMain implements "perfbench compare PARENT CHANGE": it prints a
// table of both sides' medians and quartiles per (workload, metric) and
// the verdict, and exits 1 when any pair regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", *specPath, err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	verdicts := compareSets(spec, parent, change)
	sort.SliceStable(verdicts, func(i, j int) bool { return verdicts[i].Workload < verdicts[j].Workload })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\tworse\twins\tbound\tverdict")
	regressed := false
	for _, v := range verdicts {
		var b boundSpec
		for _, s := range spec.EndToEnd {
			if s.Name == v.Metric {
				b = s
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n",
			v.Workload, v.Metric, v.Parent.Median, v.Parent.Q1, v.Parent.Q3, v.Parent.N,
			v.Change.Median, v.Change.Q1, v.Change.Q3, v.Change.N, 100*v.Worse, v.Wins, v.Pairs, 100*b.Bound, v.Outcome)
		regressed = regressed || v.Outcome == "regressed"
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}
