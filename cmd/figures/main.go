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
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
		fig        = flag.String("fig", "all", "figure to regenerate: 1,2,5,7,9,11,12,13,14,ablation,h2h,all")
		proto      = flag.String("proto", "", "protocol for single-stack figures (1,2,9): pHost|Homa|NDP|AMRT|SIRD; default = figure's paper protocol")
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
		shards     = flag.Int("shards", 0, "engine shards per simulation of figures 12, 13, 14 and breakdown (0 or 1 = single engine; results are byte-identical at every count, see docs/PARALLELISM.md); every other figure runs one engine")
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
	if *loads != "" {
		cfg.Loads = parseFloats(*loads)
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
	cfg.Shards = *shards

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = []string{"1", "2", "5", "7", "9", "11", "12", "13", "14", "ablation", "related", "incast", "breakdown", "h2h"}
	}
	for _, f := range figs {
		start := time.Now()
		runFigure(os.Stdout, strings.TrimSpace(f), cfg, *proto, *counts, *ratios, *csvDir, *plot)
		fmt.Fprintf(os.Stderr, "[fig %s done in %v]\n", f, time.Since(start).Round(time.Millisecond))
	}
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

// runFigure regenerates one figure and prints its tables (and charts,
// with plot) to w; proto has passed checkProto.
func runFigure(w io.Writer, fig string, cfg experiment.SimConfig, proto, counts, ratios, csvDir string, plot bool) {
	stackOr := func(def string) experiment.Stack {
		if proto != "" {
			return experiment.MustStack(proto, experiment.StackOptions{})
		}
		return experiment.MustStack(def, experiment.StackOptions{})
	}
	switch fig {
	case "1":
		res := experiment.Fig1(stackOr("pHost"))
		res.Phases.Fprint(w)
		if plot {
			fmt.Fprintln(w, stats.RenderASCII(stats.PlotOptions{YMax: 1.1, YLabel: "bottleneck-0 goodput utilization"}, res.Util))
		}
		dumpSeries(csvDir, "fig1_"+res.Stack+"_util", res.Util)
		dumpSeries(csvDir, "fig1_"+res.Stack+"_linkutil", res.LinkUtil)
		for _, s := range res.FlowSeries {
			dumpSeries(csvDir, "fig1_"+res.Stack+"_"+s.Name, s)
		}
	case "2":
		res := experiment.Fig2(stackOr("pHost"))
		res.Phases.Fprint(w)
		if plot {
			fmt.Fprintln(w, stats.RenderASCII(stats.PlotOptions{YMax: 1.1, YLabel: "bottleneck goodput utilization"}, res.Util))
		}
		dumpSeries(csvDir, "fig2_"+res.Stack+"_util", res.Util)
		dumpSeries(csvDir, "fig2_"+res.Stack+"_linkutil", res.LinkUtil)
		for _, s := range res.FlowSeries {
			dumpSeries(csvDir, "fig2_"+res.Stack+"_"+s.Name, s)
		}
	case "5":
		rows := experiment.Fig5([][2]int{{6, 2}, {6, 4}, {10, 4}, {10, 8}, {20, 10}})
		experiment.Fig5Table(rows).Fprint(w)
	case "7":
		for _, t := range experiment.Fig7Tables() {
			t.Fprint(w)
			dumpTable(csvDir, t)
		}
	case "9":
		res := experiment.Fig9(stackOr("AMRT"))
		res.Summary.Fprint(w)
		if plot {
			fmt.Fprintln(w, stats.RenderASCII(stats.PlotOptions{YMax: 1.1, YLabel: "normalized throughput"}, res.Series...))
		}
		for _, s := range res.Series {
			dumpSeries(csvDir, "fig9_"+res.Stack+"_"+s.Name, s)
		}
	case "11":
		results, cmp := experiment.Fig11All()
		for _, r := range results {
			r.Summary.Fprint(w)
			if plot {
				fmt.Fprintf(w, "[%s]\n%s\n", r.Stack,
					stats.RenderASCII(stats.PlotOptions{YMax: 1.1, YLabel: "normalized throughput"}, r.Series...))
			}
			for _, s := range r.Series {
				dumpSeries(csvDir, "fig11_"+r.Stack+"_"+s.Name, s)
			}
		}
		cmp.Fprint(w)
		dumpTable(csvDir, cmp)
	case "12":
		cells := experiment.Fig12Cells(cfg)
		for _, t := range experiment.Fig12Tables(cfg, cells) {
			t.Fprint(w)
			dumpTable(csvDir, t)
		}
	case "13":
		fc := parseInts(counts)
		cells := experiment.Fig13Cells(cfg, fc)
		for _, t := range experiment.Fig13Tables(cfg, fc, cells) {
			t.Fprint(w)
			dumpTable(csvDir, t)
		}
	case "14":
		rs := parseFloats(ratios)
		cells := experiment.Fig14Cells(cfg, rs)
		for _, t := range experiment.Fig14Tables(cfg, rs, cells) {
			t.Fprint(w)
			dumpTable(csvDir, t)
		}
	case "ablation":
		experiment.MarkingAblation().Fprint(w)
		experiment.QueueCapAblation().Fprint(w)
	case "related":
		experiment.RelatedWorkTable().Fprint(w)
	case "breakdown":
		for _, wl := range cfg.Workloads {
			tb := experiment.SizeBreakdownTable(cfg, wl, 0.5)
			tb.Fprint(w)
			dumpTable(csvDir, tb)
		}
	case "incast":
		tb := experiment.IncastTable([]int{4, 8, 16, 32, 64}, 250_000)
		tb.Fprint(w)
		dumpTable(csvDir, tb)
	case "h2h":
		tb := experiment.HeadToHeadTable(experiment.HeadToHead(experiment.StackOptions{}))
		tb.Fprint(w)
		dumpTable(csvDir, tb)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
		os.Exit(2)
	}
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad float %q: %v\n", part, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad int %q: %v\n", part, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func dumpSeries(dir, name string, s *stats.Series) {
	if dir == "" || s == nil {
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
	if err := s.WriteCSV(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func dumpTable(dir string, t *experiment.Table) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	f, err := os.Create(filepath.Join(dir, sanitize(t.Title)+".csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
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
