// Command perfbench is the repository's benchmark: three workloads that
// each load a different layer of the system (the paper's own Table I/II
// cells through the /v1/analyze call sequence, the extended query class
// of the randql completeness grammar, and a 3-member xdatad fleet over
// its memory and disk caches). One run measures one workload for a
// fixed time, checks that every output is correct, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 a separate traced run reports the
// per-layer metrics, timed at the benchmark's own calls into each
// layer's public functions (nothing inside the program is
// instrumented). Metric names and units are read from BENCHMARK.json,
// so the file is the single list of what a run must report.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"paper-tables": runPaperTables,
	"randql-mix":   runRandqlMix,
	"fleet-zipf":   runFleetZipf,
}

// workloadOrder is the order `--workload all` runs them in.
var workloadOrder = []string{"paper-tables", "randql-mix", "fleet-zipf"}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one workload run's settings and collects its outcome.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workDir is a per-run scratch directory under .bench_build,
	// removed at exit (fleet cache directories live here).
	workDir string

	attempted, failed int
	// setups are the run's set-up times, on the CPU clock like ops;
	// setup_s is their median, at the reference speed.
	setups latencies
	// speed measures the host's speed for the whole run (hostspeed.go).
	speed *hostSpeed
	// problems lists every failed correctness check (untimed checks
	// plus failed ops); any entry makes the run incorrect.
	problems []string
	values   map[string]float64
	// notes are human-readable lines printed before the result (sample
	// counts, design checks).
	notes  []string
	tracer *tracer
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// problem records a failed correctness check; only the first few are
// kept verbatim.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further problems elided)")
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: paper-tables, randql-mix, fleet-zipf, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	// One P for the whole run: see hostspeed.go.
	runtime.GOMAXPROCS(1)

	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	fn, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s, all)", *workload, strings.Join(workloadOrder, ", ")))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(workDir)
	speed, err := newHostSpeed()
	if err != nil {
		fatal(err)
	}
	r := &run{
		speed:    speed,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workDir:  workDir,
		values:   make(map[string]float64),
		tracer:   newTracer(*trace == 1),
	}
	if err := fn(r); err != nil {
		os.RemoveAll(workDir)
		fatal(err)
	}
	r.set("peak_rss_mb", peakRSSMB())
	if len(r.setups.ms) > 0 {
		r.speed.measure() // closes the slice of the last set-ups
		xs := r.setups.refs(r.speed)
		setup := median(xs) * refNominalMs / 1000
		r.set("setup_s", setup)
		r.note("setup_s = %.6f s at the reference speed (%.4f ms of CPU time unscaled), median of %d set-ups",
			setup, median(append([]float64(nil), r.setups.ms...)), len(xs))
	}
	if r.trace {
		if err := r.tracer.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))); err != nil {
			r.problem("write spans: %v", err)
		}
	}
	res, err := r.result(spec)
	if err != nil {
		os.RemoveAll(workDir)
		fatal(err)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	printMetrics(res)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CORRECTNESS:", p)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(workDir)
		os.Exit(1)
	}
}

// result assembles the output line: the end-to-end metrics untraced,
// the per-layer metrics traced. A per-layer metric whose layer the
// workload does not exercise reads 0; a missing end-to-end metric is a
// benchmark bug.
func (r *run) result(spec benchmarkFile) (result, error) {
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("%s: no operation attempted", r.workload)
	}
	specs := spec.EndToEnd
	if r.trace {
		specs = spec.PerLayer
	}
	for _, m := range specs {
		v, ok := r.values[m.Name]
		if !ok && !r.trace {
			return res, fmt.Errorf("%s: end-to-end metric %s not measured", r.workload, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// runAll runs every workload as a child process (so each reports its
// own peak memory) and prints one combined result whose metric names
// are prefixed with the workload. It exits non-zero when any workload
// fails a correctness check.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	all := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloadOrder {
		fmt.Printf("== %s\n", w)
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
			fmt.Fprintf(os.Stderr, "%s: run failed: %v\n", w, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, m := range res.Metrics {
			all.Metrics[w+"."+n] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var spec benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("perfbench must run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM), less
// the reference job's buffer (see hostspeed.go), which is resident for
// the whole run and is not the program's.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb/1024 - refBufBytes/(1<<20)
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
