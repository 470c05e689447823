// Command perfbench is the repository benchmark. It runs one workload
// from a seed for a fixed time, checks every output for correctness, and
// prints the workload's metrics; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload encode-hdl64 --seed 1 --seconds 20 --trace 0
//	go run . compare parent.jsonl change.jsonl
//
// Workloads (see README.md): encode-hdl64, read-hdl64, ingest-sync. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// alternates traced and untraced operations and the metrics are the
// per-layer set plus trace.overhead_pct. Every run appends a record to
// --out and a traced run writes its spans as JSON lines to --trace-dir.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// q is the error bound every workload compresses under (2 cm, the paper's
// running setting).
const q = 0.02

// setupRepeats is how many times encode-hdl64 and read-hdl64 perform their
// set-up; setup_s is the median.
const setupRepeats = 5

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// units. Times are on the process CPU clock: on a shared host the
// hypervisor's steal and the neighbours' disk traffic move wall-clock
// latencies by more than any bound a regression gate can use, while the
// CPU the program spends per operation stays put. The wall-clock latencies
// (compress_ms_p50 and so on) are printed and recorded beside them.
var endToEnd = []struct{ name, unit string }{
	{"cpu_ms_per_op", "ms"},
	{"ratio", "x"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics of the traced run. Every traced run
// reports all of them; a layer the workload does not run reports 0.
var perLayer = []struct{ name, unit string }{
	// encode-hdl64: per-frame medians of stage self times (Stats) and sizes.
	{"cluster.ms", "ms"},
	{"octree.ms", "ms"},
	{"octree.entropy_ms", "ms"},
	{"sparse.convert_ms", "ms"},
	{"polyline.ms", "ms"},
	{"sparse.ms", "ms"},
	{"outlier.ms", "ms"},
	{"core.other_ms", "ms"},
	{"bytes.dense", "B"},
	{"bytes.sparse", "B"},
	{"bytes.outlier", "B"},
	{"ratio.kitti-campus", "x"},
	{"ratio.kitti-city", "x"},
	{"ratio.kitti-residential", "x"},
	{"ratio.kitti-road", "x"},
	{"ratio.apollo-urban", "x"},
	{"ratio.ford-campus", "x"},
	{"compress.allocs_per_frame", "count"},
	// read-hdl64: section decoders called on the archived frames.
	{"octree.decode_ms", "ms"},
	{"sparse.decode_ms", "ms"},
	{"outlier.decode_ms", "ms"},
	{"core.decode_other_ms", "ms"},
	{"region.ms", "ms"},
	{"region.points_frac", "frac"},
	{"decode.allocs_per_frame", "count"},
	// ingest-sync: spans keyed by (tenant, seq) around the service calls.
	{"store.append_ms", "ms"},
	{"store.commit_ms", "ms"},
	{"replica.wait_ms", "ms"},
	{"replica.apply_ms", "ms"},
	{"replica.follower_commit_ms", "ms"},
	{"store.fsyncs_per_frame", "count"},
	{"store.fsyncs_per_frame_follower", "count"},
	{"reliable.send_wait_ms", "ms"},
	{"reliable.resends", "count"},
	{"reliable.busy_nacks", "count"},
	{"reliable.nacks", "count"},
	{"replica.lag_bytes_max", "B"},
	{"store.write_amp", "x"},
	{"store.reopen_ms", "ms"},
	{"gen.lag_ms_max", "ms"},
	// Every workload.
	{"trace.overhead_pct", "%"},
}

// named is a metric under its workload-specific name, with the number of
// samples behind it (0 for values that are not sample statistics).
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// config is what a workload run needs from the command line.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// WorkDir holds the run's scratch files (stores); the run removes it.
	WorkDir string
}

// result is what a workload run measured.
type result struct {
	Attempted int
	Failed    int
	// Problems holds the first failure reasons, for the report.
	Problems []string
	// Named holds every reported value under its workload-specific name.
	Named []named
	// EndToEnd and Layers are keyed by the names in endToEnd and perLayer.
	EndToEnd map[string]float64
	Layers   map[string]float64
	// Inputs identifies the generated input set.
	Inputs string
	tracer *tracer
}

func newResult(cfg config) *result {
	r := &result{EndToEnd: map[string]float64{}, Layers: map[string]float64{}}
	if cfg.Trace {
		r.tracer = newTracer()
	}
	return r
}

// fail counts one failed operation and keeps the first reasons.
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations with one reason.
func (r *result) failN(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// note records a workload-specific value.
func (r *result) note(name string, v float64, unit string, n int) {
	r.Named = append(r.Named, named{Name: name, Value: v, Unit: unit, N: n})
}

// latency records the median and a tail percentile of a wall-clock
// latency sample under the workload's names.
func (r *result) latency(p50Name, tailName string, tailPct float64, ms []float64) {
	r.note(p50Name, percentile(ms, 50), "ms", len(ms))
	r.note(tailName, percentile(ms, tailPct), "ms", len(ms))
}

// common records the end-to-end metrics every workload computes the same
// way: setup_s from the set-up CPU times (wall-clock beside it), ratio,
// and peak_rss_mb.
func (r *result) common(setupCPU, setupWall []float64, ratio float64) {
	r.EndToEnd["setup_s"] = median(setupCPU)
	r.EndToEnd["ratio"] = ratio
	r.EndToEnd["peak_rss_mb"] = peakRSSMB()
	r.note("setup_s", r.EndToEnd["setup_s"], "s", len(setupCPU))
	r.note("setup_wall_s", median(setupWall), "s", len(setupWall))
	r.note("ratio", ratio, "x", 0)
	r.note("peak_rss_mb", r.EndToEnd["peak_rss_mb"], "MB", 0)
}

// cpuTime returns the CPU time (user and system, all threads) the process
// has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// workloads maps each workload name to its implementation.
var workloads = map[string]func(config) (*result, error){
	"encode-hdl64": runEncode,
	"read-hdl64":   runRead,
	"ingest-sync":  runIngest,
}

// measureFor reports whether a measurement loop that started at start and
// has taken n samples should continue: it runs for the configured time,
// and an untraced run continues past it until minN samples exist (so the
// reported tail percentile has at least ten samples beyond it), but never
// past 2.5x the time.
func measureFor(cfg config, start time.Time, n, minN int) bool {
	el := time.Since(start).Seconds()
	if el < cfg.Seconds {
		return true
	}
	return !cfg.Trace && n < minN && el < 2.5*cfg.Seconds
}

// settle ends input generation: it returns the generator's garbage to the
// OS and restarts the kernel's peak-RSS counter, so peak_rss_mb covers
// set-up and measurement (with the inputs resident) but not generation.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+). Where it cannot,
	// the peak includes input generation.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size in MiB since settle: VmHWM
// from /proc/self/status, or the process maximum from getrusage.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// finite maps NaN and infinities (statistics of an empty sample) to 0,
// which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// record is one line of the results file: everything a later comparison or
// re-check needs about a run.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Time       string            `json:"time"`
	Inputs     string            `json:"inputs_sha256"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailFrac   float64           `json:"fail_frac"`
	Metrics    map[string]metric `json:"metrics"`
	Named      []named           `json:"named"`
	Problems   []string          `json:"problems,omitempty"`
}

// commit returns the revision run.py found for the checkout (the
// PERFBENCH_COMMIT environment variable), or "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	workload := flag.String("workload", "", "workload to run: encode-hdl64, read-hdl64 or ingest-sync")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	out := flag.String("out", filepath.Join(".bench_build", "results.jsonl"), "results file the run appends its record to")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for span files of traced runs")
	workDir := flag.String("work-dir", filepath.Join(".bench_build", "work"), "scratch directory for stores")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (encode-hdl64, read-hdl64, ingest-sync), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
		WorkDir: filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(*workload, cfg, res, *out, *traceDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// report prints the human-readable lines, writes the record and spans, and
// prints the final JSON line.
func report(workload string, cfg config, res *result, outPath, traceDir string) error {
	correct := res.Failed == 0 && res.Attempted > 0
	metrics := map[string]metric{}
	if cfg.Trace {
		for _, m := range perLayer {
			metrics[m.name] = metric{finite(res.Layers[m.name]), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metric{finite(res.EndToEnd[m.name]), m.unit}
		}
	}
	for i := range res.Named {
		res.Named[i].Value = finite(res.Named[i].Value)
	}
	failFrac := float64(res.Failed) / math.Max(1, float64(res.Attempted))
	fmt.Printf("workload %s seed %d seconds %g trace %v: go %s, %d CPUs, GOMAXPROCS %d\n",
		workload, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range res.Named {
		if n.N > 0 {
			fmt.Printf("  %-32s %14.4f %-6s (n=%d)\n", n.Name, n.Value, n.Unit, n.N)
		} else {
			fmt.Printf("  %-32s %14.4f %s\n", n.Name, n.Value, n.Unit)
		}
	}
	fmt.Printf("  %-32s %14.4f (%d of %d operations failed)\n", "fail_frac", failFrac, res.Failed, res.Attempted)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  metric %-32s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, p := range res.Problems {
		fmt.Printf("  FAIL %s\n", p)
	}
	rec := record{
		Workload: workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time: time.Now().UTC().Format(time.RFC3339), Inputs: res.Inputs,
		Correct: correct, Attempted: res.Attempted, Failed: res.Failed, FailFrac: failFrac,
		Metrics: metrics, Named: res.Named, Problems: res.Problems,
	}
	var errs []error
	if outPath != "" {
		if err := appendRecord(outPath, rec); err != nil {
			errs = append(errs, fmt.Errorf("writing record: %w", err))
		}
	}
	if res.tracer != nil && traceDir != "" {
		p := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.Seed))
		if err := res.tracer.writeJSONL(p); err != nil {
			errs = append(errs, fmt.Errorf("writing spans: %w", err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
