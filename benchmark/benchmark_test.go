package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.EndToEnd, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json differs from spec.go:\n%+v\n%+v", sp.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(sp.PerLayer, perLayer) {
		t.Errorf("per_layer of BENCHMARK.json differs from spec.go")
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricDecl{}, sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	var declared, built []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	for _, w := range workloads(quickSizes) {
		built = append(built, w.name)
	}
	if !reflect.DeepEqual(declared, built) {
		t.Errorf("workloads: BENCHMARK.json declares %v, the benchmark builds %v", declared, built)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v; the benchmark owns only its own directory", sp.Paths)
	}
	if !reflect.DeepEqual(sp.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", sp.Command)
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default budget is %d", sp.RunSeconds, runSeconds)
	}
}

// TestEveryWorkloadAndLayer runs each workload's timed and traced run
// in-process at reduced sizes, on seed 7, and checks that nothing is
// breached and that exactly the declared per-layer metrics come out.
func TestEveryWorkloadAndLayer(t *testing.T) {
	for _, w := range workloads(quickSizes) {
		for _, traced := range []bool{false, true} {
			rep, err := runChild(childOpts{workload: w.name, seed: 7, budget: time.Millisecond, share: 1, traced: traced,
				spawnedAt: time.Now().UnixNano(), out: t.TempDir()}, quickSizes, quickLayers)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(rep.Breaches) != 0 || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, breaches %v", w.name, traced, rep.Attempted, rep.Failed, rep.Breaches)
			}
			if rep.SetupS <= 0 || rep.PaperErrMax <= 0 || rep.PeakRSSMB <= 0 {
				t.Errorf("%s traced=%v: setup_s %v, paper_err_max %v, peak_rss_mb %v must be positive",
					w.name, traced, rep.SetupS, rep.PaperErrMax, rep.PeakRSSMB)
			}
			if !traced {
				if len(rep.Passes) < minPasses {
					t.Errorf("%s: %d timed passes, want at least %d", w.name, len(rep.Passes), minPasses)
				}
				continue
			}
			for _, d := range perLayer {
				if _, ok := rep.Layers[d.Name]; !ok {
					t.Errorf("%s: per-layer metric %s not measured", w.name, d.Name)
				}
			}
			if len(rep.Layers) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics measured, %d declared", w.name, len(rep.Layers), len(perLayer))
			}
			if len(rep.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			if name := w.name; name == "sweep_warm" && rep.Layers["campaign.hit_ratio"] != 1 {
				t.Errorf("sweep_warm: hit ratio %v, want 1", rep.Layers["campaign.hit_ratio"])
			}
		}
	}
}

// TestSummarize pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestSummarize(t *testing.T) {
	s := summarize([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize(1..3) = %+v", s)
	}
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i)
	}
	if s := summarize(big); s.Tail != 189 || s.TailPct != 95 {
		t.Errorf("tail of 0..199 = %v at p%v, want 189 at p95", s.Tail, s.TailPct)
	}
}

func TestLoadJitter(t *testing.T) {
	if got := loadJitter(1); got != 1 {
		t.Errorf("loadJitter(1) = %v; seed 1 is the nominal input", got)
	}
	seen := map[float64]bool{}
	for seed := int64(-3); seed <= 40; seed++ {
		j := loadJitter(seed)
		if j < 0.99 || j > 1.01 {
			t.Errorf("loadJitter(%d) = %v, outside ±1%%", seed, j)
		}
		if j != loadJitter(seed) {
			t.Errorf("loadJitter(%d) is not a function of the seed", seed)
		}
		seen[j] = true
	}
	if len(seen) != 44 {
		t.Errorf("%d distinct jitters over 44 seeds", len(seen))
	}
}

func TestCoveredIsAUnion(t *testing.T) {
	spans := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 70, End: 120}}
	if got := covered(spans, 0, 100); got != 70 {
		t.Errorf("covered = %d, want 40 + 30", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{}
	for _, d := range endToEnd {
		d.Bound = 0.10
		sp.EndToEnd = append(sp.EndToEnd, d)
	}
	mk := func(wall float64, failed int) *resultFile {
		f := &resultFile{Header: header{CPUs: 2, GoVersion: "go", SimVersion: "v"}}
		for i := 0; i < 5; i++ {
			r := runResult{Workload: "w", Seed: int64(i), Correct: true, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metricValue{Value: 1 + 0.001*float64(i), Unit: d.Unit}
			}
			r.Metrics["wall_s"] = metricValue{Value: wall * (1 + 0.001*float64(i)), Unit: "s"}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1, 0))
	for _, c := range []struct {
		name string
		file *resultFile
		code int
		want string
	}{
		{"same", mk(1.05, 0), 0, "same"},
		{"worse", mk(1.2, 0), 1, "worse"},
		{"better", mk(0.8, 0), 0, "better"},
		{"failing", mk(1, 1), 1, "fail_share is higher"},
	} {
		var out, errOut bytes.Buffer
		if code := compareFiles(sp, base, write(c.name+".json", c.file), &out, &errOut); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
	other := mk(1, 0)
	other.Header.CPUs = 4
	var out, errOut bytes.Buffer
	if code := compareFiles(sp, base, write("cpus.json", other), &out, &errOut); code != 2 {
		t.Errorf("different cpus: exit %d, want 2 (refused)", code)
	}
}
