// Command benchmark is the repository's benchmark: five named
// workloads run through the simulator's public API, end-to-end metrics
// measured with tracing off, and a separate traced run that gives the
// per-layer numbers. README.md in this directory is the manual.
//
//	bash benchmark/run.sh                       every workload, benchmark/out/result.json
//	bash benchmark/run.sh -traced               the per-layer run, benchmark/out/trace.json
//	bash benchmark/run.sh -runs 10              ten seeds per workload, with the spreads
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is what the PR driver calls; it ends with one JSON line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"amrt"
	"amrt/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// processes is how many worker processes share a run's time budget,
// one after the other. A process keeps whatever its address-space
// layout and its start on the machine gave it (±5% on the reference
// box) for all its passes, so one process per run would put that luck
// into the run's medians; three also give three cold set-up samples.
const processes = 3

// runSeconds is the time budget of one run's timed passes, and what
// BENCHMARK.json declares as run_seconds.
const runSeconds = 15

// childTimeout bounds one worker process; the driver allows a run 180 s.
const childTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload only and end with the result as one JSON line")
		seed     = fs.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds  = fs.Int("seconds", runSeconds, "time budget of one run's timed passes")
		trace    = fs.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = end-to-end metrics")
		traced   = fs.Bool("traced", false, "same as -trace 1")
		runs     = fs.Int("runs", 1, "runs per workload, at seeds seed, seed+1, …; prints the spread across them")
		out      = fs.String("out", "benchmark/out", "directory for result.json, trace.json and scratch files")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark declaration (bounds for -compare and -runs)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")

		child     = fs.Bool("child", false, "internal: run as a worker process")
		budget    = fs.Duration("budget", 0, "internal: the worker's share of the time budget")
		spawnedAt = fs.Int64("spawned-at", 0, "internal: UnixNano at which the parent started the worker")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *traced {
		*trace = 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		sp, err := loadSpec(*specPath)
		if err != nil {
			return fail(err)
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *child:
		rep, err := runChild(childOpts{workload: *workload, seed: *seed, budget: *budget, share: processes,
			traced: *trace == 1, spawnedAt: *spawnedAt, out: *out}, fullSizes, fullLayers)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			return fail(err)
		}
		return 0
	}

	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads(fullSizes) {
			names = append(names, w.name)
		}
	}
	if *runs < 1 || *seconds < 1 {
		return fail(fmt.Errorf("-runs and -seconds must be at least 1"))
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	file := resultFile{Header: newHeader(), Traced: *trace == 1}
	file.Header.print(stdout)
	if file.Header.Load1 > 0.5*float64(file.Header.CPUs) {
		fmt.Fprintf(stdout, "WARNING: 1-min load average %.2f exceeds half the %d CPUs; timings will be noisy\n",
			file.Header.Load1, file.Header.CPUs)
	}
	ok := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(exe, name, *seed+int64(i), *seconds, *trace == 1, *out, stderr)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			res.print(stdout)
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct && res.Failed == 0
		}
	}
	if *runs > 1 {
		if sp, err := loadSpec(*specPath); err != nil {
			fmt.Fprintln(stderr, "benchmark: no spread check:", err)
		} else {
			printSpreads(sp, &file, stdout)
		}
	}
	if err := file.write(*out); err != nil {
		return fail(err)
	}
	if *workload != "" {
		// The driver's contract: the result is the last line of stdout.
		last := file.Runs[len(file.Runs)-1]
		line, err := json.Marshal(last.contract())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: correctness gate breached; see the breaches above")
		return 1
	}
	return 0
}

// header records what a result was measured on. Results measured on
// different CPU counts, Go versions or simulator generations must
// never be compared.
type header struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SimVersion string  `json:"sim_version"`
	Scheduler  string  `json:"scheduler"`
	LoadAvg    string  `json:"loadavg"`
	Load1      float64 `json:"load1"`
}

// workerProcs is the GOMAXPROCS of a worker process: at most two
// threads of simulator work, as on the reference machine, so a
// many-core host does not measure a different program.
func workerProcs() int { return min(runtime.NumCPU(), 2) }

func newHeader() header {
	h := header{CPUs: runtime.NumCPU(), GOMAXPROCS: workerProcs(), GoVersion: runtime.Version(),
		SimVersion: amrt.SimVersion, Scheduler: sim.DefaultScheduler().String()}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(raw))
		if f := strings.Fields(h.LoadAvg); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64) // malformed reads as 0: no warning
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "cpus=%d GOMAXPROCS=%d go=%s sim=%s scheduler=%s loadavg=%q\n",
		h.CPUs, h.GOMAXPROCS, h.GoVersion, h.SimVersion, h.Scheduler, h.LoadAvg)
}

// metricValue is one reported metric. Summary describes the samples the
// value is the median of (timed passes, or set-up processes); metrics
// read once per run carry none.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Breaches  []string               `json:"breaches,omitempty"`
	Stats     simStats               `json:"stats"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     []span                 `json:"-"`
}

// contract is the result in the shape the PR driver reads.
func (r runResult) contract() map[string]any {
	ms := map[string]any{}
	for name, m := range r.Metrics {
		ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func (r runResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s seed=%d  ops_attempted=%d ops_failed=%d fail_share=%g  events=%d completed=%d/%d afct_us=%.3f p99_us=%.3f util=%.4f drops=%d\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.FailShare,
		r.Stats.Events, r.Stats.Completed, r.Stats.Total, r.Stats.AFCTUs, r.Stats.P99Us, r.Stats.Util, r.Stats.Drops)
	decls := endToEnd
	if r.Traced {
		decls = perLayer
	}
	for _, d := range decls {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-38s %14.6g %-12s", d.Name, m.Value, m.Unit)
		if s := m.Summary; s != nil {
			fmt.Fprintf(w, " n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Q3, s.Max)
			if s.N >= 100 {
				fmt.Fprintf(w, " p%.1f=%.6g", s.TailPct, s.Tail)
			}
		}
		fmt.Fprintln(w)
	}
	for _, b := range r.Breaches {
		fmt.Fprintln(w, "  BREACH:", b)
	}
}

// spawn runs one worker process to completion and decodes its report.
func spawn(exe string, stderr io.Writer, args ...string) (*childReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args = append(args, "-child", "-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	raw, err := cmd.Output() // waits for the process to end
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("worker report: %w", err)
	}
	return &rep, nil
}

// runWorkload makes one run: the worker processes one after the other,
// their passes pooled. A traced run is one process.
func runWorkload(exe, name string, seed int64, seconds int, traced bool, out string, stderr io.Writer) (runResult, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-out", out}
	res := runResult{Workload: name, Seed: seed, Traced: traced, Metrics: map[string]metricValue{}}
	n := processes
	if traced {
		args = append(args, "-trace", "1")
		n = 1
	} else {
		args = append(args, "-budget", (time.Duration(seconds) * time.Second / processes).String())
	}
	var rep *childReport
	var passes []sample
	var setups, rss []float64
	for i := 0; i < n; i++ {
		var err error
		if rep, err = spawn(exe, stderr, args...); err != nil {
			return res, err
		}
		if i > 0 && rep.Stats != res.Stats {
			res.Breaches = append(res.Breaches, fmt.Sprintf("process %d simulated %+v, the first %+v", i+1, rep.Stats, res.Stats))
		}
		res.Attempted, res.Failed, res.Stats = res.Attempted+rep.Attempted, res.Failed+rep.Failed, rep.Stats
		res.Breaches = append(res.Breaches, rep.Breaches...)
		passes = append(passes, rep.Passes...)
		setups, rss = append(setups, rep.SetupS), append(rss, rep.PeakRSSMB)
	}
	res.Spans = rep.Spans

	if traced {
		for _, d := range perLayer {
			v, ok := rep.Layers[d.Name]
			if !ok {
				res.Breaches = append(res.Breaches, "per-layer metric "+d.Name+" was not measured")
			}
			res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	} else {
		col := func(get func(sample) float64) *summary {
			vs := make([]float64, len(passes))
			for i, s := range passes {
				vs[i] = get(s)
			}
			sum := summarize(vs)
			return &sum
		}
		setupSum, rssSum := summarize(setups), summarize(rss)
		for _, d := range endToEnd {
			var m metricValue
			switch d.Name {
			case "wall_s":
				m.Summary = col(func(s sample) float64 { return s.WallS })
			case "cpu_s":
				m.Summary = col(func(s sample) float64 { return s.CPUS })
			case "alloc_mb":
				m.Summary = col(func(s sample) float64 { return float64(s.AllocBytes) / 1e6 })
			case "mallocs":
				m.Summary = col(func(s sample) float64 { return float64(s.Mallocs) })
			case "setup_s":
				m.Summary = &setupSum
			case "peak_rss_mb":
				m.Summary = &rssSum
			case "paper_err_max":
				m.Value = rep.PaperErrMax
			}
			if m.Summary != nil {
				m.Value = m.Summary.Median
			}
			if d.Name == "peak_rss_mb" {
				// Collector timing only ever adds to a high-water mark, and on
				// a small heap it adds a third in one process and nothing in
				// the next; the smallest of the three is what the workload needs.
				m.Value = m.Summary.Min
			}
			m.Unit = d.Unit
			res.Metrics[d.Name] = m
		}
	}
	res.Correct = len(res.Breaches) == 0
	if res.Attempted > 0 {
		res.FailShare = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

// resultFile is benchmark/out/result.json (traced.json for the traced
// run): what -compare reads.
type resultFile struct {
	Header header      `json:"header"`
	Traced bool        `json:"traced"`
	Runs   []runResult `json:"runs"`
}

func (f *resultFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "result.json"
	if f.Traced {
		name = "traced.json"
		type workloadSpans struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Spans    []span `json:"spans"`
		}
		var all []workloadSpans
		for _, r := range f.Runs {
			all = append(all, workloadSpans{r.Workload, r.Seed, withSelf(r.Spans)})
		}
		if err := writeJSON(filepath.Join(dir, "trace.json"), all); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, name), f)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload across the
// file's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (f *resultFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range f.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printSpreads reports, per workload and end-to-end metric, the median
// across the runs and the inter-quartile distance as a share of it —
// the steadiness the benchmark is accepted on: every spread must stay
// within the metric's bound, and should stay below a third of it.
func printSpreads(sp *spec, f *resultFile, w io.Writer) {
	fmt.Fprintf(w, "\nspread across runs (IQR / median), against the bound of BENCHMARK.json\n")
	for _, name := range f.workloadNames() {
		for _, d := range sp.EndToEnd {
			s := summarize(f.values(name, d.Name))
			if s.N < 2 {
				continue
			}
			verdict := "steady"
			switch {
			case d.Name == "setup_s":
				verdict = "not gated"
			case s.spread() > d.Bound:
				verdict = "WIDER THAN THE BOUND"
			case s.spread() > d.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "  %-24s %-14s median=%-12.6g spread=%6.2f%%  bound=%5.1f%%  n=%d  %s\n",
				name, d.Name, s.Median, 100*s.spread(), 100*d.Bound, s.N, verdict)
		}
	}
}
