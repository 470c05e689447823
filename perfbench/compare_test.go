package main

import "testing"

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	lower := boundSpec{Name: "cpu_ms_per_op", Better: "lower", Bound: 0.1}
	higher := boundSpec{Name: "ratio", Better: "higher", Bound: 0.05}
	noisy := []float64{60, 140, 100, 70, 130, 90, 110, 80, 120, 100}
	for _, tc := range []struct {
		name           string
		b              boundSpec
		parent, change []float64
		want           string
	}{
		{"same", lower, base, base, "unchanged"},
		{"within bound", lower, base, scale(1.05), "unchanged"},
		{"slower", lower, base, scale(1.2), "regressed"},
		{"faster", lower, base, scale(0.9), "improved"},
		{"noisy", lower, base, noisy, "unresolved"},
		{"ratio drop", higher, base, scale(0.9), "regressed"},
		{"ratio gain", higher, base, scale(1.1), "improved"},
	} {
		v := judge(tc.b, summarize(tc.parent, seeds), summarize(tc.change, seeds), seeds, seeds)
		if v.Outcome != tc.want {
			t.Errorf("%s: %s (worse %+.3f, wins %d/%d), want %s", tc.name, v.Outcome, v.Worse, v.Wins, v.Pairs, tc.want)
		}
	}
}

func TestCompareSetsPairsWorkloadsAndMetrics(t *testing.T) {
	var spec benchSpec
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"encode-hdl64"})
	spec.EndToEnd = []boundSpec{{Name: "cpu_ms_per_op", Better: "lower", Bound: 0.1}}
	mk := func(v float64, seed int64) record {
		return record{Workload: "encode-hdl64", Seed: seed, Metrics: map[string]metric{"cpu_ms_per_op": {v, "ms"}}}
	}
	var parent, change []record
	for i := int64(0); i < 10; i++ {
		parent = append(parent, mk(100+float64(i%3), i))
		change = append(change, mk(150+float64(i%3), i))
	}
	vs := compareSets(spec, parent, change)
	if len(vs) != 1 || vs[0].Outcome != "regressed" || vs[0].Pairs != 10 {
		t.Fatalf("got %+v", vs)
	}
}
