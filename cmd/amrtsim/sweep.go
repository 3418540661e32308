package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"amrt"
)

// sweepMain implements `amrtsim sweep`: expand a protocol × workload ×
// topology × degree × load × fault × seed grid, run it across
// all cores with a resumable on-disk result cache, and emit the campaign
// report as a table, JSON, and CSV. Ctrl-C cancels cleanly: completed
// points stay cached, so re-invoking the same command resumes where
// the campaign stopped.
func sweepMain(args []string) int {
	fs := flag.NewFlagSet("amrtsim sweep", flag.ExitOnError)
	var (
		protos    = fs.String("protos", strings.Join(amrt.Protocols(), ","), "comma-separated protocols to sweep")
		workloads = fs.String("workloads", "WebSearch", "comma-separated workloads to sweep")
		toposArg  = fs.String("topos", "", "pipe-separated topology specs to sweep, e.g. 'leafspine|fattree:k=4' ('' = the base fabric; grammar in docs/TOPOLOGIES.md)")
		degrees   = fs.String("degrees", "", "comma-separated incast fan-ins to sweep ('' = base degree; needs -pattern incast)")
		loads     = fs.String("loads", "0.5", "comma-separated offered-load fractions to sweep")
		seeds     = fs.String("seeds", "1", "comma-separated RNG seeds per cell (CI half-widths need >= 2)")
		faultsArg = fs.String("faults", "", "pipe-separated fault specs to sweep ('' = fault-free; grammar in docs/FAULTS.md)")
		auditArg  = fs.Bool("audit", false, "run every point with the runtime invariant auditor attached (part of the cache key; audited and unaudited campaigns never share entries)")
		flows     = fs.Int("flows", 1000, "flows per point")
		leaves    = fs.Int("leaves", 0, "leaf switches (0 = default 4)")
		spines    = fs.Int("spines", 0, "spine switches (0 = default 4)")
		hosts     = fs.Int("hostsPerLeaf", 0, "hosts per leaf (0 = default 10)")
		gbps      = fs.Float64("gbps", 0, "link rate in Gbit/s (0 = default 10)")
		pattern   = fs.String("pattern", "", "traffic pattern for every point: poisson|incast|shuffle|rpc ('' = poisson)")
		incastB   = fs.Int64("incast-bytes", 0, "incast per-sender block size in bytes (0 = default 64KiB)")
		shufW     = fs.Int("shuffle-width", 0, "shuffle peers per host (0 = full all-to-all)")
		shufB     = fs.Int64("shuffle-bytes", 0, "shuffle per-pair transfer size in bytes (0 = default 1MiB)")
		rpcReq    = fs.Int64("rpc-request", 0, "RPC request size in bytes (0 = default 1KiB)")
		rpcResp   = fs.Int64("rpc-response", 0, "RPC response size in bytes (0 = default 64KiB)")
		rpcDl     = fs.Duration("rpc-deadline", 0, "RPC completion deadline from request start (0 = no deadlines)")
		degree    = fs.Int("homa-degree", 0, "Homa overcommitment degree (0 = default 2)")
		sirdPool  = fs.Int64("sird-pool", 0, "SIRD per-receiver credit-pool bound in bytes (0 = automatic 1.5x downlink BDP)")
		sirdStale = fs.Int("sird-staleness", 0, "SIRD demand-advertisement staleness window in RTTs (0 = default 8)")
		timeout   = fs.Duration("timeout", 0, "virtual-time horizon per point (0 = default 20s)")
		cacheDir  = fs.String("cache", "", "resumable result-cache directory ('' disables caching)")
		workers   = fs.Int("workers", 0, "worker cap (0 = GOMAXPROCS)")
		cellTO    = fs.Duration("cell-timeout", 0, "per-point budget; a point past it fails (0 = unbounded)")
		quarArg   = fs.Bool("quarantine", false, "keep the campaign running past failed points; they are reported as FAILED instead of aborting the sweep")
		jsonPath  = fs.String("json", "", "write the full campaign report as JSON to this file")
		csvPath   = fs.String("csv", "", "write the per-cell aggregate table as CSV to this file")
		quiet     = fs.Bool("q", false, "suppress per-point progress on stderr")
	)
	fs.Parse(args)

	protoList := splitList(*protos)
	loadList, err := parseFloats(*loads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim sweep: -loads: %v\n", err)
		return 2
	}
	seedList, err := parseInts(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim sweep: -seeds: %v\n", err)
		return 2
	}
	degreeList, err := parseInts(*degrees)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim sweep: -degrees: %v\n", err)
		return 2
	}
	var degreeInts []int
	for _, d := range degreeList {
		degreeInts = append(degreeInts, int(d))
	}
	var topoList []string
	if *toposArg != "" {
		topoList = strings.Split(*toposArg, "|")
	}
	var faultList []string
	if *faultsArg != "" {
		faultList = strings.Split(*faultsArg, "|")
	}

	sc := amrt.SweepConfig{
		Protocols:  protoList,
		Workloads:  splitList(*workloads),
		Topologies: topoList,
		Degrees:    degreeInts,
		Loads:      loadList,
		Seeds:      seedList,
		Faults:     faultList,
		Base: amrt.Config{
			Flows: *flows,
			Topology: amrt.Topology{
				Leaves: *leaves, Spines: *spines, HostsPerLeaf: *hosts, LinkGbps: *gbps,
			},
			Pattern:          *pattern,
			IncastBytes:      *incastB,
			ShuffleWidth:     *shufW,
			ShuffleBytes:     *shufB,
			RPCRequestBytes:  *rpcReq,
			RPCResponseBytes: *rpcResp,
			RPCDeadline:      *rpcDl,
			Options: amrt.StackOptions{
				HomaDegree: *degree, SIRDPoolBytes: *sirdPool, SIRDStalenessRTTs: *sirdStale,
			},
			Timeout: *timeout,
			Audit:   *auditArg,
		},
		CacheDir:    *cacheDir,
		Workers:     *workers,
		CellTimeout: *cellTO,
		Quarantine:  *quarArg,
	}
	if !*quiet {
		sc.Progress = func(p amrt.SweepProgress) {
			src := "computed"
			if p.FromCache {
				src = "cached"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", p.Done, p.Total, p.Point, src)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	res, err := amrt.Sweep(ctx, sc)
	if err != nil && res == nil {
		fmt.Fprintf(os.Stderr, "amrtsim sweep: %v\n", err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim sweep: interrupted (%v): %d/%d points completed and cached\n",
			err, len(res.Points), res.TotalPoints)
	}

	printSweepTable(res)
	printSweepFailures(res)
	fmt.Printf("cache: %d hits, %d misses (%d points, %.1fs wall)\n",
		res.CacheHits, res.CacheMisses, res.TotalPoints, time.Since(start).Seconds())

	if *jsonPath != "" {
		if werr := writeReport(*jsonPath, res.WriteJSON); werr != nil {
			fmt.Fprintf(os.Stderr, "amrtsim sweep: %v\n", werr)
			return 2
		}
	}
	if *csvPath != "" {
		if werr := writeReport(*csvPath, res.WriteCSV); werr != nil {
			fmt.Fprintf(os.Stderr, "amrtsim sweep: %v\n", werr)
			return 2
		}
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

// printSweepFailures lists the quarantined points in grid order, with
// their errors.
func printSweepFailures(res *amrt.SweepResult) {
	if len(res.Failed) == 0 {
		return
	}
	fmt.Printf("FAILED %d/%d points (quarantined):\n", len(res.Failed), res.TotalPoints)
	for _, f := range res.Failed {
		fmt.Printf("  %s: %s\n", f.SweepCoord, f.Error)
	}
}

func printSweepTable(res *amrt.SweepResult) {
	deadlines := false
	for _, c := range res.Cells {
		if c.DeadlineTotal > 0 {
			deadlines = true
			break
		}
	}
	fmt.Printf("%-8s %-14s %-18s %5s %6s %14s %14s %8s %11s %8s",
		"proto", "workload", "topology", "load", "seeds", "AFCT", "p99", "util", "done", "drops")
	if deadlines {
		fmt.Printf(" %11s", "dl-missed")
	}
	fmt.Println()
	for _, c := range res.Cells {
		name := c.Workload
		if c.Faults != "" {
			name += "+faults"
		}
		topoName := c.Topology
		if topoName == "" {
			topoName = "base"
		}
		if c.Degree != 0 {
			topoName += fmt.Sprintf("/d%d", c.Degree)
		}
		fmt.Printf("%-8s %-14s %-18s %5.2f %6d %9.0f±%-3.0f %9.0f±%-3.0f %8.3f %5d/%-5d %8d",
			c.Protocol, name, topoName, c.Load, c.Seeds,
			c.AFCTUs.Mean, c.AFCTUs.CI95, c.P99Us.Mean, c.P99Us.CI95,
			c.Utilization.Mean, c.Completed, c.Total, c.Drops)
		if deadlines {
			fmt.Printf(" %5d/%-5d", c.DeadlineMissed, c.DeadlineTotal)
		}
		fmt.Println()
	}
}

func writeReport(path string, write func(w io.Writer) error) error {
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

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
