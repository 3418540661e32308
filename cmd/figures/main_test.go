package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"amrt/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// figCase is one golden: `figures -fig F [-proto P] -csv DIR` on cfg,
// with -metrics DIR too when metrics is set.
type figCase struct {
	fig, proto string
	cfg        experiment.SimConfig
	metrics    bool
	suffix     string
}

// smallSim is the fabric the large figures (12, 13, 14, breakdown)
// render on in the goldens: experiment_test.go's 2 × 2 × 6 smallConfig,
// one workload and one load, with `-counts 150 -ratios 1.0 -repeats 1`
// passed beside it.
func smallSim() experiment.SimConfig {
	cfg := experiment.DefaultSimConfig()
	cfg.Topo.Leaves, cfg.Topo.Spines, cfg.Topo.HostsPerLeaf = 2, 2, 6
	cfg.FlowsPerRun = 100
	cfg.BytesBudget = 1 << 28
	cfg.Loads = []float64{0.3, 0.7}
	cfg.Workloads = []string{"CacheFollower"}
	cfg.Repeats = 1
	return cfg
}

// render is what the case's command produces: the stdout bytes, then
// one "csv <file> <sha256>" line per file of the -csv DIR and one
// "metrics <file> <sha256>" line per file of the -metrics DIR, each in
// name order.
func render(t *testing.T, c figCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	tmp := t.TempDir()
	dir, mdir := filepath.Join(tmp, "csv"), filepath.Join(tmp, "metrics")
	cfg := c.cfg
	if c.metrics {
		cfg.MetricsDir = mdir
	}
	runFigure(&buf, c.fig, figArgs{cfg: cfg, proto: c.proto, counts: []int{100}, ratios: []float64{1.0}, csvDir: dir})
	for _, d := range []struct{ tag, dir string }{{"csv", dir}, {"metrics", mdir}} {
		files, err := os.ReadDir(d.dir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(d.dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %x\n", d.tag, f.Name(), sha256.Sum256(data))
		}
	}
	return buf.Bytes()
}

// TestFiguresGolden pins every figure byte for byte: tables,
// time-series CSVs and, for the Fig 12 case run with -faults and
// -metrics, the telemetry dumps. The small-topology goldens are the
// output of the binary built at the commit before the figures moved
// onto a shared scenario harness, and the harness's removal left them
// unmoved; the large figures (7, 12, 13, 14,
// incast, breakdown, h2h) were recorded before they moved onto one
// cell runner. A deliberate behaviour change (SimVersion bump)
// regenerates them with -update. Link-utilization CSVs also move when
// their sampler changes band: the late-band utilization tick books a
// transmission that ends on the tick's nanosecond into the window it
// ended in (fig2_AMRT, 2.0 ms).
func TestFiguresGolden(t *testing.T) {
	def, small := experiment.DefaultSimConfig(), smallSim()
	faulted := smallSim()
	faulted.Loads = []float64{0.5}
	faulted.FaultSpec = "ctrl-loss=0.01"
	cases := []figCase{
		{fig: "1", cfg: def}, {fig: "1", proto: "AMRT", cfg: def},
		{fig: "2", cfg: def}, {fig: "2", proto: "AMRT", cfg: def},
		{fig: "9", cfg: def}, {fig: "9", proto: "pHost", cfg: def},
		{fig: "11", cfg: def},
		{fig: "5", cfg: def}, {fig: "ablation", cfg: def}, {fig: "related", cfg: def},
		{fig: "7", cfg: def}, {fig: "incast", cfg: def}, {fig: "h2h", cfg: def},
		{fig: "12", cfg: small}, {fig: "13", cfg: small}, {fig: "14", cfg: small},
		{fig: "breakdown", cfg: small},
		{fig: "12", cfg: faulted, metrics: true, suffix: "faults_metrics"},
	}
	for _, name := range figureNames {
		if !slices.ContainsFunc(cases, func(c figCase) bool { return c.fig == name }) {
			t.Errorf("figure %s has no golden case", name)
		}
	}
	for _, c := range cases {
		name := "fig" + c.fig
		for _, s := range []string{c.proto, c.suffix} {
			if s != "" {
				name += "_" + s
			}
		}
		t.Run(name, func(t *testing.T) {
			got := render(t, c)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("figures -fig %s -proto %q differs from %s:\n%s", c.fig, c.proto, path, got)
			}
		})
	}
}

// TestUnknownFigureIsOneLine: -fig is checked whole before any figure
// runs, so `-fig 12,bogus` is one line naming the figures there are,
// not Fig 12's full run followed by the error; `all` is every figure.
func TestUnknownFigureIsOneLine(t *testing.T) {
	figs, err := parseFigs("12, bogus")
	want := `figures: unknown figure "bogus" (have ` + strings.Join(figureNames, ",") + ")"
	if figs != nil || err == nil || err.Error() != want {
		t.Errorf("parseFigs(12, bogus) = %q, %v; want nil, %s", figs, err, want)
	}
	if figs, err := parseFigs("12, h2h"); err != nil || !slices.Equal(figs, []string{"12", "h2h"}) {
		t.Errorf("parseFigs(12, h2h) = %q, %v", figs, err)
	}
	if figs, err := parseFigs("all"); err != nil || !slices.Equal(figs, figureNames) {
		t.Errorf("parseFigs(all) = %q, %v", figs, err)
	}
}

// TestBadSweepValueIsOneLine: -loads, -counts and -ratios are parsed
// and range-checked before any figure runs, so a bad value is one line
// naming the flag and what it wants, not a panic in a worker or a
// failure after the first figure's run.
func TestBadSweepValueIsOneLine(t *testing.T) {
	const (
		defCounts = "100,200,400,800"
		defRatios = "0.1,0.3,0.5,0.7,0.9,1.0"
	)
	cases := []struct{ loads, counts, ratios, err string }{
		{"", defCounts, defRatios, ""},
		{"0.2, 0.25,1", "1", "0,1", ""},
		{"0", defCounts, defRatios, `figures: bad -loads value "0": want a load in (0, 1]`},
		{"0.5,1.5", defCounts, defRatios, `figures: bad -loads value "1.5": want a load in (0, 1]`},
		{"-0.3", defCounts, defRatios, `figures: bad -loads value "-0.3": want a load in (0, 1]`},
		{"NaN", defCounts, defRatios, `figures: bad -loads value "NaN": want a load in (0, 1]`},
		{"0.5,", defCounts, defRatios, `figures: bad -loads value "": want a load in (0, 1]`},
		{"", "1x", defRatios, `figures: bad -counts value "1x": want a flow count of at least 1`},
		{"", "100,0", defRatios, `figures: bad -counts value "0": want a flow count of at least 1`},
		{"", "", defRatios, `figures: bad -counts value "": want a flow count of at least 1`},
		{"", defCounts, "1.5", `figures: bad -ratios value "1.5": want a ratio in [0, 1]`},
		{"", defCounts, "-0.1", `figures: bad -ratios value "-0.1": want a ratio in [0, 1]`},
		{"", defCounts, "half", `figures: bad -ratios value "half": want a ratio in [0, 1]`},
	}
	for _, c := range cases {
		ls, cs, rs, err := parseSweep(c.loads, c.counts, c.ratios)
		if c.err == "" {
			if err != nil || len(cs) == 0 || len(rs) == 0 || (c.loads == "") != (ls == nil) {
				t.Errorf("parseSweep(%q, %q, %q) = %v, %v, %v, %v", c.loads, c.counts, c.ratios, ls, cs, rs, err)
			}
			continue
		}
		if err == nil || err.Error() != c.err {
			t.Errorf("parseSweep(%q, %q, %q) error = %v, want %s", c.loads, c.counts, c.ratios, err, c.err)
		}
	}
	ls, cs, rs, _ := parseSweep("0.2, 0.25,1", "1", "0,1")
	if !slices.Equal(ls, []float64{0.2, 0.25, 1}) || !slices.Equal(cs, []int{1}) || !slices.Equal(rs, []float64{0, 1}) {
		t.Errorf("parseSweep values = %v, %v, %v", ls, cs, rs)
	}
}

// TestUnknownProtoIsOneLine: a mistyped -proto is refused before any
// figure runs, with one line naming the protocols there are.
func TestUnknownProtoIsOneLine(t *testing.T) {
	err := checkProto("Bogus")
	want := fmt.Sprintf("figures: unknown protocol %q (have %v)", "Bogus", experiment.StackNames())
	if err == nil || err.Error() != want {
		t.Errorf("checkProto(Bogus) = %v, want %s", err, want)
	}
	for _, name := range append(experiment.StackNames(), "") {
		if err := checkProto(name); err != nil {
			t.Errorf("checkProto(%q) = %v", name, err)
		}
	}
}
