// Command amrtsim runs one simulation of a receiver-driven transport on
// a datacenter fabric — leaf-spine, k-ary fat-tree, or oversubscribed
// Clos (-topo, grammar in docs/TOPOLOGIES.md) — and prints the results,
// optionally comparing all four protocols on identical traffic. Beyond
// the paper's open-loop Poisson arrivals, -pattern selects incast,
// shuffle, or deadline-RPC traffic. The `sweep` subcommand runs a whole
// parameter campaign — protocols × workloads × topologies × degrees ×
// loads × faults × seeds — in parallel with a resumable result cache
// (see docs/API.md). The `serve` subcommand runs the campaign daemon:
// sweeps submitted as HTTP jobs against a journaled ledger and shared
// cache, with per-cell quarantine and graceful drain (see
// docs/SERVICE.md).
//
// Examples:
//
//	amrtsim -proto AMRT -workload DataMining -load 0.7 -flows 2000
//	amrtsim -compare -workload WebSearch -load 0.5
//	amrtsim -proto Homa -homa-degree 8 -workload CacheFollower
//	amrtsim -proto NDP -faults 'link=leaf0->spine1,down=5ms,up=8ms;ctrl-loss=0.01'
//	amrtsim -topo fattree:k=8 -pattern incast -incast-degree 16 -flows 512
//	amrtsim -topo clos:pods=4,leaves=4,hosts=16 -pattern rpc -rpc-deadline 2ms
//	amrtsim sweep -protos NDP,AMRT -loads 0.3,0.5,0.7 -seeds 1,2,3 \
//	    -cache .sweep-cache -json campaign.json -csv campaign.csv
//	amrtsim sweep -topos 'fattree:k=4|leafspine' -pattern incast -degrees 4,8
//	amrtsim serve -state .amrtsim-serve -addr 127.0.0.1:8340 -cell-timeout 10m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/faults"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		os.Exit(sweepMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain implements the plain command — one simulation, or the
// comparison set with -compare: it parses args, prints results to
// stdout and diagnostics to stderr, and returns the exit status.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := baseSpec{Flows: 1000}
	base.bind(fs)
	var run amrt.Config // the run-only knobs; base.config fills the rest
	fs.StringVar(&run.Protocol, "proto", "AMRT", "protocol: "+strings.Join(experiment.StackNames(), "|"))
	fs.StringVar(&run.Workload, "workload", "WebSearch", "workload: "+strings.Join(amrt.Workloads(), "|"))
	fs.Float64Var(&run.Load, "load", 0.5, "offered load fraction (0,1]")
	fs.Int64Var(&run.Seed, "seed", 1, "RNG seed")
	fs.IntVar(&run.IncastDegree, "incast-degree", 0, "incast sender fan-in per epoch (0 = default 32)")
	fs.StringVar(&run.TracePath, "trace", "", "write a CSV event trace (flow starts/completions, deliveries, drops) to this file")
	fs.StringVar(&run.MetricsPath, "metrics", "", "write a JSON telemetry dump (per-port queue/utilization/mark-rate series + counters; schema in docs/TELEMETRY.md) to this file")
	fs.StringVar(&run.MetricsCSVPath, "metrics-csv", "", "also write the telemetry time series as one wide CSV to this file")
	fs.DurationVar(&run.MetricsInterval, "metrics-interval", 100*time.Microsecond, "telemetry sampling period in virtual time")
	fs.StringVar(&run.Faults, "faults", "", "fault-injection spec, e.g. 'link=leaf0->spine1,down=5ms,up=8ms;ctrl-loss=0.01' (grammar in docs/FAULTS.md)")
	fs.IntVar(&run.Shards, "shards", 0, "engine shards, a determinism check (0 or 1 = single engine; the output must be byte-identical at every count, see docs/PARALLELISM.md)")
	var (
		compare    = fs.Bool("compare", false, "run the whole comparison set on identical traffic")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return usageStatus(err)
	}

	if _, err := faults.Parse(run.Faults); err != nil {
		fmt.Fprintf(stderr, "amrtsim: invalid -faults: %v\n", err)
		return 2
	}
	cfg, err := base.config(run)
	if err != nil {
		fmt.Fprintf(stderr, "amrtsim: invalid -%v\n", err)
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "amrtsim: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "amrtsim: cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "amrtsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "amrtsim: memprofile: %v\n", err)
			}
		}()
	}

	// Config mistakes (unknown protocol, malformed fault spec, a fault
	// naming a link the topology doesn't have) are user input here, not
	// programmer error: report on one line and exit.
	fail := func(err error) int {
		fmt.Fprintf(stderr, "amrtsim: %v\n", err)
		if errors.Is(err, amrt.ErrBadFaultSpec) {
			fmt.Fprintln(stderr, "amrtsim: see docs/FAULTS.md for the -faults grammar and the link names the topology defines")
		}
		return 1
	}

	if *compare {
		results, err := amrt.CompareContext(context.Background(), cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "workload=%s load=%.2f flows=%d\n", cfg.Workload, cfg.Load, cfg.Flows)
		fmt.Fprintf(stdout, "%-8s %12s %12s %8s %10s %8s\n", "proto", "AFCT", "p99", "util", "done", "drops")
		for _, r := range results {
			fmt.Fprintf(stdout, "%-8s %12v %12v %8.3f %6d/%-4d %8d\n",
				r.Protocol, round(r.AFCT), round(r.P99), r.Utilization, r.Completed, r.Total, r.Drops)
		}
		return 0
	}

	start := time.Now()
	r, err := amrt.RunContext(context.Background(), cfg)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "protocol:    %s\n", r.Protocol)
	fmt.Fprintf(stdout, "workload:    %s @ load %.2f\n", r.Workload, r.Load)
	fmt.Fprintf(stdout, "flows:       %d/%d completed\n", r.Completed, r.Total)
	fmt.Fprintf(stdout, "AFCT:        %v\n", round(r.AFCT))
	fmt.Fprintf(stdout, "p99 FCT:     %v\n", round(r.P99))
	fmt.Fprintf(stdout, "utilization: %.3f\n", r.Utilization)
	fmt.Fprintf(stdout, "drops:       %d   trims: %d\n", r.Drops, r.Trims)
	if r.DeadlineTotal > 0 {
		fmt.Fprintf(stdout, "deadlines:   %d/%d missed\n", r.DeadlineMissed, r.DeadlineTotal)
	}
	fmt.Fprintf(stdout, "events:      %d (%.1fM events/s wall)\n", r.Events, float64(r.Events)/elapsed.Seconds()/1e6)
	if r.Killed > 0 {
		fmt.Fprintf(stdout, "killed:      %d (endpoint host crashed)\n", r.Killed)
	}
	if r.Stalled > 0 {
		fmt.Fprintf(stderr, "warning: %d flows stalled (no progress for the watchdog window with links up)\n", r.Stalled)
	}
	if incomplete := r.Total - r.Completed - r.Killed; incomplete > 0 {
		fmt.Fprintf(stderr, "warning: %d flows did not complete before the horizon\n", incomplete)
	}
	return 0
}

// usageStatus is the exit status after a flag set's Parse failed with
// err, as flag.ExitOnError would exit: 0 after -h, 2 after a bad flag.
func usageStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
