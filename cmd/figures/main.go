// Command figures regenerates the paper's figures as tables (and
// optional CSV time series) from the simulator.
//
// Usage:
//
//	figures -fig all
//	figures -fig 12 -loads 0.1,0.3,0.5,0.7 -flows 2000
//	figures -fig 13 -counts 100,200,400,800
//	figures -fig 14 -ratios 0.1,0.3,0.5,0.7,0.9,1.0 -repeats 10
//	figures -fig 1 -proto pHost
//	figures -fig ablation
//	figures -paper-scale   (full §8.1 topology — slow)
//	figures -csv out/      (also dump time series and tables as CSV)
//	figures -fig 12 -metrics out/metrics/   (one JSON telemetry dump per run)
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/sim"
	"amrt/internal/stats"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(figureNames, ",")+" or all")
		proto      = flag.String("proto", "", "protocol for single-stack figures (1,2,9): "+strings.Join(experiment.StackNames(), "|")+"; default = figure's paper protocol")
		loads      = flag.String("loads", "", "comma-separated loads for fig 12 (default 0.1,0.3,0.5,0.7)")
		counts     = flag.String("counts", "100,200,400,800", "comma-separated flow counts for fig 13")
		ratios     = flag.String("ratios", "0.1,0.3,0.5,0.7,0.9,1.0", "responsive ratios for fig 14")
		flows      = flag.Int("flows", 0, "flows per run for fig 12 (default 2000, budget-capped)")
		repeats    = flag.Int("repeats", 0, "seed repeats for fig 14 (default 5)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		leaves     = flag.Int("leaves", 0, "override leaf count")
		spines     = flag.Int("spines", 0, "override spine count")
		hostsPer   = flag.Int("hostsPerLeaf", 0, "override hosts per leaf")
		paperScale = flag.Bool("paper-scale", false, "use the full §8.1 topology (10 leaves × 8 spines × 400 hosts) — slow")
		csvDir     = flag.String("csv", "", "directory to also write CSV outputs into")
		plot       = flag.Bool("plot", false, "render ASCII charts for the time-series figures (1, 2, 9, 11)")
		metricsDir = flag.String("metrics", "", "directory to write one JSON telemetry dump per figure-12/13 run into (schema in docs/TELEMETRY.md)")
		metricsIvl = flag.Duration("metrics-interval", 100*time.Microsecond, "telemetry sampling period in virtual time")
		faultSpec  = flag.String("faults", "", "fault-injection spec applied to every figure-12/13 run (grammar in docs/FAULTS.md)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()

	if _, err := faults.Parse(*faultSpec); err != nil {
		fmt.Fprintf(os.Stderr, "figures: invalid -faults: %v\n", err)
		os.Exit(2)
	}
	if err := checkProto(*proto); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	figs, err := parseFigs(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	loadList, countList, ratioList, err := parseSweep(*loads, *counts, *ratios)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "figures: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "figures: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiment.DefaultSimConfig()
	if *paperScale {
		cfg = experiment.PaperSimConfig()
	}
	cfg.Seed = *seed
	if loadList != nil {
		cfg.Loads = loadList
	}
	if *flows > 0 {
		cfg.FlowsPerRun = *flows
	}
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *leaves > 0 {
		cfg.Topo.Leaves = *leaves
	}
	if *spines > 0 {
		cfg.Topo.Spines = *spines
	}
	if *hostsPer > 0 {
		cfg.Topo.HostsPerLeaf = *hostsPer
	}
	cfg.MetricsDir = *metricsDir
	cfg.MetricsInterval = sim.FromDuration(*metricsIvl)
	cfg.FaultSpec = *faultSpec

	args := figArgs{cfg: cfg, proto: *proto, counts: countList, ratios: ratioList, csvDir: *csvDir, plot: *plot}
	for _, f := range figs {
		start := time.Now()
		runFigure(os.Stdout, f, args)
		fmt.Fprintf(os.Stderr, "[fig %s done in %v]\n", f, time.Since(start).Round(time.Millisecond))
	}
}

// figArgs is what a figure reads from the command line.
type figArgs struct {
	cfg    experiment.SimConfig
	proto  string    // has passed checkProto; "" runs each figure's paper protocol
	counts []int     // Fig 13's flow counts
	ratios []float64 // Fig 14's responsive ratios
	csvDir string
	plot   bool
}

// stack returns the -proto stack, or def when -proto is unset.
func (a figArgs) stack(def string) experiment.Stack {
	return experiment.MustStack(cmp.Or(a.proto, def), experiment.StackOptions{})
}

// tables prints each table to w and writes it to the -csv directory.
func (a figArgs) tables(w io.Writer, ts ...*experiment.Table) {
	for _, t := range ts {
		t.Fprint(w)
		writeCSV(a.csvDir, t.Title, t.WriteCSV)
	}
}

// figure is one row of the figure table: its -fig name and the
// function that regenerates it and prints its tables (and charts,
// with -plot) to w.
type figure struct {
	name   string
	render func(w io.Writer, a figArgs)
}

// figures is the one list of figures, in `-fig all` order; the -fig
// help text, parseFigs and runFigure all read it.
var figures = []figure{
	{"1", func(w io.Writer, a figArgs) {
		motivation(w, a, "fig1", "bottleneck-0 goodput utilization", experiment.Fig1(a.stack("pHost")))
	}},
	{"2", func(w io.Writer, a figArgs) {
		motivation(w, a, "fig2", "bottleneck goodput utilization", experiment.Fig2(a.stack("pHost")))
	}},
	{"5", func(w io.Writer, a figArgs) {
		experiment.Fig5Table(experiment.Fig5([][2]int{{6, 2}, {6, 4}, {10, 4}, {10, 8}, {20, 10}})).Fprint(w)
	}},
	{"7", func(w io.Writer, a figArgs) { a.tables(w, experiment.Fig7Tables()...) }},
	{"9", func(w io.Writer, a figArgs) { testbed(w, a, "fig9", "", experiment.Fig9(a.stack("AMRT"))) }},
	{"11", func(w io.Writer, a figArgs) {
		results, summary := experiment.Fig11All()
		for _, r := range results {
			testbed(w, a, "fig11", "["+r.Stack+"]\n", r)
		}
		a.tables(w, summary)
	}},
	{"12", func(w io.Writer, a figArgs) {
		a.tables(w, experiment.Fig12Tables(a.cfg, experiment.Fig12Cells(a.cfg))...)
	}},
	{"13", func(w io.Writer, a figArgs) {
		a.tables(w, experiment.Fig13Tables(a.cfg, a.counts, experiment.Fig13Cells(a.cfg, a.counts))...)
	}},
	{"14", func(w io.Writer, a figArgs) {
		a.tables(w, experiment.Fig14Tables(a.cfg, a.ratios, experiment.Fig14Cells(a.cfg, a.ratios))...)
	}},
	{"ablation", func(w io.Writer, a figArgs) {
		experiment.MarkingAblation().Fprint(w)
		experiment.QueueCapAblation().Fprint(w)
	}},
	{"related", func(w io.Writer, a figArgs) { experiment.RelatedWorkTable().Fprint(w) }},
	{"incast", func(w io.Writer, a figArgs) {
		a.tables(w, experiment.IncastTable([]int{4, 8, 16, 32, 64}, 250_000))
	}},
	{"breakdown", func(w io.Writer, a figArgs) {
		for _, wl := range a.cfg.Workloads {
			a.tables(w, experiment.SizeBreakdownTable(a.cfg, wl, 0.5))
		}
	}},
	{"h2h", func(w io.Writer, a figArgs) {
		a.tables(w, experiment.HeadToHeadTable(experiment.HeadToHead(experiment.StackOptions{})))
	}},
}

// figureNames lists the figure table's names in `-fig all` order.
var figureNames = func() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}()

// motivation prints a §2 motivation figure's phase table (and chart,
// with -plot) and writes its series to the -csv directory.
func motivation(w io.Writer, a figArgs, prefix, ylabel string, res experiment.MotivationResult) {
	res.Phases.Fprint(w)
	if a.plot {
		fmt.Fprintln(w, stats.RenderASCII(stats.PlotOptions{YMax: 1.1, YLabel: ylabel}, res.Util))
	}
	prefix += "_" + res.Stack + "_"
	dumpSeries(a.csvDir, prefix+"util", res.Util)
	dumpSeries(a.csvDir, prefix+"linkutil", res.LinkUtil)
	for _, s := range res.FlowSeries {
		dumpSeries(a.csvDir, prefix+s.Name, s)
	}
}

// testbed prints a §7 testbed figure's summary (and chart under
// header, with -plot) and writes its series to the -csv directory.
func testbed(w io.Writer, a figArgs, prefix, header string, res experiment.TestbedResult) {
	res.Summary.Fprint(w)
	if a.plot {
		fmt.Fprint(w, header, stats.RenderASCII(stats.PlotOptions{YMax: 1.1, YLabel: "normalized throughput"}, res.Series...), "\n")
	}
	for _, s := range res.Series {
		dumpSeries(a.csvDir, prefix+"_"+res.Stack+"_"+s.Name, s)
	}
}

// runFigure regenerates one figure, which has passed parseFigs, and
// prints it to w.
func runFigure(w io.Writer, fig string, a figArgs) {
	figures[slices.IndexFunc(figures, func(f figure) bool { return f.name == fig })].render(w, a)
}

// parseFigs expands -fig into figure names, refusing an unknown one
// before any figure runs, so `-fig 12,bogus` fails before Fig 12's run,
// not after it.
func parseFigs(arg string) ([]string, error) {
	if arg == "all" {
		return figureNames, nil
	}
	figs := strings.Split(arg, ",")
	for i, f := range figs {
		figs[i] = strings.TrimSpace(f)
		if !slices.Contains(figureNames, figs[i]) {
			return nil, fmt.Errorf("figures: unknown figure %q (have %s)", figs[i], strings.Join(figureNames, ","))
		}
	}
	return figs, nil
}

// checkProto resolves -proto before any figure runs, so a mistyped name
// is one line and exit 2, not a panic out of the first figure that uses it.
func checkProto(proto string) error {
	if proto == "" {
		return nil
	}
	if _, err := experiment.NewStack(proto, experiment.StackOptions{}); err != nil {
		return fmt.Errorf("figures: %s", strings.TrimPrefix(err.Error(), "experiment: "))
	}
	return nil
}

// parseSweep parses and range-checks -loads, -counts and -ratios before
// any figure runs: loads in (0, 1], flow counts of at least 1, ratios
// in [0, 1]. An empty -loads is nil, the configuration's default loads.
func parseSweep(loads, counts, ratios string) (ls []float64, cs []int, rs []float64, err error) {
	float := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	if loads != "" {
		ls, err = parseList("loads", loads, float, func(v float64) bool { return v > 0 && v <= 1 }, "a load in (0, 1]")
	}
	if err == nil {
		cs, err = parseList("counts", counts, strconv.Atoi, func(v int) bool { return v >= 1 }, "a flow count of at least 1")
	}
	if err == nil {
		rs, err = parseList("ratios", ratios, float, func(v float64) bool { return v >= 0 && v <= 1 }, "a ratio in [0, 1]")
	}
	return ls, cs, rs, err
}

// parseList parses the comma-separated values of -name, refusing the
// first one that does not parse or is not ok with one line that says
// what the flag wants.
func parseList[T any](name, arg string, parse func(string) (T, error), ok func(T) bool, want string) ([]T, error) {
	var out []T
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		v, err := parse(part)
		if err != nil || !ok(v) {
			return nil, fmt.Errorf("figures: bad -%s value %q: want %s", name, part, want)
		}
		out = append(out, v)
	}
	return out, nil
}

// dumpSeries writes s as dir/<name>.csv; see writeCSV.
func dumpSeries(dir, name string, s *stats.Series) {
	if s != nil {
		writeCSV(dir, name, s.WriteCSV)
	}
}

// writeCSV writes dir/<name>.csv through write, reporting a failure on
// stderr; an empty dir writes nothing.
func writeCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	f, err := os.Create(filepath.Join(dir, sanitize(name)+".csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		case r == ' ', r == '/':
			b.WriteRune('_')
		}
	}
	return b.String()
}
