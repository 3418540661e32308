package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// samples returns what a metric's median and spread are taken over:
// the per-run values when the file holds several runs of the workload,
// otherwise the single run's own samples (timed passes, set-up
// processes).
func (f *resultFile) samples(workload, metric string) summary {
	vs := f.values(workload, metric)
	if len(vs) == 1 {
		for _, r := range f.Runs {
			if m := r.Metrics[metric]; r.Workload == workload && m.Summary != nil {
				return *m.Summary
			}
		}
	}
	return summarize(vs)
}

func (f *resultFile) failed(workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return failed, attempted
}

// compareFiles prints, per workload and end-to-end metric, both
// medians with their quartile spreads, the ratio with its base, and a
// verdict against the bound BENCHMARK.json fixes: same, worse, better,
// or unresolved when either side's spread is wider than the bound. It
// returns non-zero on any worse metric or a higher fail share.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err == nil && a.Traced {
		err = fmt.Errorf("%s is a traced run; end-to-end metrics are never taken from one", pathA)
	}
	var b *resultFile
	if err == nil {
		b, err = readResult(pathB)
	}
	if err == nil && b.Traced {
		err = fmt.Errorf("%s is a traced run; end-to-end metrics are never taken from one", pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	ha, hb := a.Header, b.Header
	if ha.CPUs != hb.CPUs || ha.GoVersion != hb.GoVersion || ha.SimVersion != hb.SimVersion {
		fmt.Fprintf(stderr, "benchmark: refusing to compare: A is cpus=%d %s %s, B is cpus=%d %s %s\n",
			ha.CPUs, ha.GoVersion, ha.SimVersion, hb.CPUs, hb.GoVersion, hb.SimVersion)
		return 2
	}
	fmt.Fprintf(stdout, "A = %s (base)\nB = %s\n", pathA, pathB)
	bad := false
	for _, name := range a.workloadNames() {
		fmt.Fprintf(stdout, "\n%s\n", name)
		for _, d := range sp.EndToEnd {
			sa, sb := a.samples(name, d.Name), b.samples(name, d.Name)
			if sa.N == 0 || sb.N == 0 {
				fmt.Fprintf(stdout, "  %-14s missing from one side\n", d.Name)
				bad = true
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, bad = "worse", true
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(stdout, "  %-14s A=%-12.6g (±%5.2f%%, n=%d)  B=%-12.6g (±%5.2f%%, n=%d)  B/A=%.4f of %.6g %s  bound=%.1f%%  %s\n",
				d.Name, sa.Median, 100*sa.spread(), sa.N, sb.Median, 100*sb.spread(), sb.N,
				sb.Median/sa.Median, sa.Median, d.Unit, 100*d.Bound, verdict)
		}
		fa, na := a.failed(name)
		fb, nb := b.failed(name)
		fmt.Fprintf(stdout, "  %-14s A=%d/%d  B=%d/%d\n", "ops_failed", fa, na, fb, nb)
		if na == 0 || nb == 0 || float64(fb)/float64(nb) > float64(fa)/float64(na) {
			fmt.Fprintf(stdout, "  fail_share is higher (or nothing was attempted)\n")
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}
