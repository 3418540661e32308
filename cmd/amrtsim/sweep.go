package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"time"

	"amrt"
)

// sweepMain implements `amrtsim sweep`: expand a protocol × workload ×
// topology × degree × load × fault × seed grid, run it across
// all cores with a resumable on-disk result cache, and emit the campaign
// report as a table, JSON, and CSV. Ctrl-C cancels cleanly: completed
// points stay cached, so re-invoking the same command resumes where
// the campaign stopped.
func sweepMain(args []string, stdout, stderr io.Writer) int {
	var c sweepCommand
	if err := c.parse(args, stderr); err != nil {
		return usageStatus(err)
	}
	sc, err := c.spec.sweep(c.pol)
	if err != nil {
		fmt.Fprintf(stderr, "amrtsim sweep: invalid -%v\n", err)
		return 2
	}
	if !c.quiet {
		sc.Progress = func(p amrt.SweepProgress) {
			src := "computed"
			if p.FromCache {
				src = "cached"
			}
			fmt.Fprintf(stderr, "[%d/%d] %s %s\n", p.Done, p.Total, p.Point, src)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	res, err := amrt.Sweep(ctx, sc)
	if err != nil && res == nil {
		fmt.Fprintf(stderr, "amrtsim sweep: %v\n", err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "amrtsim sweep: interrupted (%v): %d/%d points completed and cached\n",
			err, len(res.Points), res.TotalPoints)
	}

	printSweepTable(stdout, res)
	fmt.Fprintf(stdout, "cache: %d hits, %d misses (%d points, %.1fs wall)\n",
		res.CacheHits, res.CacheMisses, res.TotalPoints, time.Since(start).Seconds())

	werr := writeReport(c.jsonPath, res.WriteJSON)
	if werr == nil {
		werr = writeReport(c.csvPath, res.WriteCSV)
	}
	if werr != nil {
		fmt.Fprintf(stderr, "amrtsim sweep: %v\n", werr)
		return 2
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if len(res.Failed) > 0 {
		// Degraded completion: the campaign finished under -quarantine
		// but gave up on some points. Distinct from both success (0)
		// and hard failure (1) so scripts can tell the cases apart.
		return 3
	}
	return 0
}

// sweepCommand is `amrtsim sweep`'s command line: the job spec its flags
// fill, how the grid executes here, and where the report goes. A flag
// left out is a spec field left out.
type sweepCommand struct {
	spec              sweepSpec
	pol               servePolicy
	jsonPath, csvPath string
	quiet             bool
}

// parse fills c from args. The flag set reports its own errors.
func (c *sweepCommand) parse(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("amrtsim sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// An empty name would quietly run the default protocol or workload;
	// an empty topology or fault spec is the base fabric or no faults.
	word := func(s string) (string, error) {
		if s == "" {
			return "", errors.New("empty list element")
		}
		return s, nil
	}
	spec := func(s string) (string, error) { return s, nil }
	fs.Func("protos", "comma-separated `list` of protocols to sweep (default: the comparison set)", list(&c.spec.Protocols, ",", word))
	fs.Func("workloads", "comma-separated `list` of workloads to sweep (default WebSearch)", list(&c.spec.Workloads, ",", word))
	fs.Func("topos", "pipe-separated `list` of topology specs to sweep, e.g. 'leafspine|fattree:k=4' (default: the -topo fabric; grammar in docs/TOPOLOGIES.md)", list(&c.spec.Topologies, "|", spec))
	fs.Func("degrees", "comma-separated `list` of incast fan-ins to sweep (default: the base degree; needs -pattern incast)", list(&c.spec.Degrees, ",", strconv.Atoi))
	fs.Func("loads", "comma-separated `list` of offered-load fractions to sweep (default 0.5)", list(&c.spec.Loads, ",", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }))
	fs.Func("seeds", "comma-separated `list` of RNG seeds per cell; CI half-widths need >= 2 (default 1)", list(&c.spec.Seeds, ",", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }))
	fs.Func("faults", "pipe-separated `list` of fault specs to sweep, an empty one fault-free (default: fault-free; grammar in docs/FAULTS.md)", list(&c.spec.Faults, "|", spec))
	c.spec.bind(fs)
	fs.DurationVar((*time.Duration)(&c.spec.CellTimeout), "cell-timeout", 0, "per-point budget; a point past it fails (0 = unbounded)")
	fs.StringVar(&c.pol.cacheDir, "cache", "", "resumable result-cache directory ('' disables caching)")
	fs.IntVar(&c.pol.workers, "workers", 0, "worker cap (0 = GOMAXPROCS)")
	fs.BoolVar(&c.pol.quarantine, "quarantine", false, "keep the campaign running past failed points; they are reported as FAILED instead of aborting the sweep")
	fs.StringVar(&c.jsonPath, "json", "", "write the full campaign report as JSON to this file")
	fs.StringVar(&c.csvPath, "csv", "", "write the per-cell aggregate table as CSV to this file")
	fs.BoolVar(&c.quiet, "q", false, "suppress per-point progress on stderr")
	return fs.Parse(args)
}

// printSweepTable prints one row per cell, then the quarantined points
// in grid order with their errors.
func printSweepTable(w io.Writer, res *amrt.SweepResult) {
	deadlines := slices.ContainsFunc(res.Cells, func(c amrt.SweepCell) bool { return c.DeadlineTotal > 0 })
	fmt.Fprintf(w, "%-8s %-14s %-18s %5s %6s %14s %14s %8s %11s %8s",
		"proto", "workload", "topology", "load", "seeds", "AFCT", "p99", "util", "done", "drops")
	if deadlines {
		fmt.Fprintf(w, " %11s", "dl-missed")
	}
	fmt.Fprintln(w)
	for _, c := range res.Cells {
		name := c.Workload
		if c.Faults != "" {
			name += "+faults"
		}
		topoName := cmp.Or(c.Topology, "base")
		if c.Degree != 0 {
			topoName += fmt.Sprintf("/d%d", c.Degree)
		}
		fmt.Fprintf(w, "%-8s %-14s %-18s %5.2f %6d %9.0f±%-3.0f %9.0f±%-3.0f %8.3f %5d/%-5d %8d",
			c.Protocol, name, topoName, c.Load, c.Seeds,
			c.AFCTUs.Mean, c.AFCTUs.CI95, c.P99Us.Mean, c.P99Us.CI95,
			c.Utilization.Mean, c.Completed, c.Total, c.Drops)
		if deadlines {
			fmt.Fprintf(w, " %5d/%-5d", c.DeadlineMissed, c.DeadlineTotal)
		}
		fmt.Fprintln(w)
	}
	if len(res.Failed) > 0 {
		fmt.Fprintf(w, "FAILED %d/%d points (quarantined):\n", len(res.Failed), res.TotalPoints)
	}
	for _, f := range res.Failed {
		fmt.Fprintf(w, "  %s: %s\n", f.SweepCoord, f.Error)
	}
}

// writeReport writes one report to path, if there is one.
func writeReport(path string, write func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
