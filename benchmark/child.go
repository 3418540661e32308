package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"amrt/internal/experiment"
)

// childReport is what one worker process measured. Each workload runs
// in a process of its own, so no workload inherits another's heap,
// pools or page cache state, and set-up can be sampled cold.
type childReport struct {
	// SetupS is process start → first timed pass: input generation plus
	// the untimed warm-up pass.
	SetupS    float64  `json:"setup_s"`
	Passes    []sample `json:"passes,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// Stats is the first pass's simulated statistics; every later pass
	// must reproduce them.
	Stats       simStats `json:"stats"`
	PaperErrMax float64  `json:"paper_err_max"`
	// Breaches lists every correctness gate the run failed.
	Breaches []string `json:"breaches,omitempty"`
	// Layers and Spans are filled by a traced run only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

type childOpts struct {
	workload string
	seed     int64
	// budget is this process's share of the run's time budget, and
	// share how many processes the run is split over: the process makes
	// at most that fraction of the workload's pass cap.
	budget    time.Duration
	share     int
	traced    bool
	spawnedAt int64 // UnixNano at which the parent started this process
	out       string
}

// minPasses is the fewest timed passes a process makes, whatever its
// time budget.
const minPasses = 2

func (r *childReport) breach(format string, args ...any) {
	r.Breaches = append(r.Breaches, fmt.Sprintf(format, args...))
}

// account books one pass's operations. A pass whose simulated
// statistics differ from the first pass's counts all its operations as
// failed.
func (r *childReport) account(what string, res passResult) {
	r.Attempted += res.ops
	if res.stats != r.Stats {
		r.Failed += res.ops
		r.breach("%s: simulated statistics %+v differ from the first pass's %+v", what, res.stats, r.Stats)
		return
	}
	r.Failed += res.failed
	if res.breach != "" {
		r.breach("%s: %s", what, res.breach)
	}
}

func runChild(o childOpts, sz sizes, lsz layerSizes) (*childReport, error) {
	var w *benchWorkload
	for _, c := range workloads(sz) {
		if c.name == o.workload {
			c := c
			w = &c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(workerProcs())
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	scratch := filepath.Join(o.out, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	p, err := w.prepare(o.seed, scratch)
	if err != nil {
		return nil, err
	}
	first, err := runPass(p.pass) // warm-up: pools fill, the heap reaches its working size
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rep := &childReport{Stats: first.stats}
	rep.SetupS = float64(time.Now().UnixNano()-o.spawnedAt) / 1e9

	if o.traced {
		err = rep.tracedRun(p, lsz, scratch)
	} else {
		err = rep.timedRun(p, o.budget, (w.maxPasses+o.share-1)/o.share)
	}
	if err != nil {
		return nil, err
	}
	rep.PeakRSSMB = peakRSSMB()
	fig1, fig2 := experiment.Fig1(mustStack("pHost")), experiment.Fig2(mustStack("pHost"))
	if rep.PaperErrMax, err = paperErrMax(fig1, fig2); err != nil {
		return nil, err
	}
	return rep, nil
}

// runPass makes one pass and then, off the clock, verifies it.
func runPass(pass func() (verify, error)) (passResult, error) {
	check, err := pass()
	if err != nil {
		return passResult{}, err
	}
	return check()
}

// timedPass measures one pass; verification runs after the clock stops.
func timedPass(pass func() (verify, error)) (sample, passResult, error) {
	var check verify
	s, err := measure(func() error {
		var err error
		check, err = pass()
		return err
	})
	if err != nil {
		return s, passResult{}, err
	}
	res, err := check()
	return s, res, err
}

// timedRun makes the timed passes: back to back (a closed loop of one
// client) until the budget is spent or the workload's cap is reached.
func (r *childReport) timedRun(p *prepared, budget time.Duration, maxPasses int) error {
	start := time.Now()
	for n := 0; n < maxPasses && (n < minPasses || time.Since(start) < budget); n++ {
		s, res, err := timedPass(p.pass)
		if err != nil {
			return err
		}
		r.Passes = append(r.Passes, s)
		r.account(fmt.Sprintf("pass %d", n+1), res)
	}
	return nil
}

// The traced run repeats a workload — each repeat an untraced
// reference pass followed by a traced one — at least tracedPasses
// times, and on until the reference passes add up to
// layerSizes.tracedMinWall seconds (a millisecond-scale pass needs many
// repeats before the tracing overhead is more than noise) or
// tracedMaxPasses is reached.
const (
	tracedPasses    = 2
	tracedMaxPasses = 100
)

// tracedRun produces the per-layer numbers: the workload's own passes
// with a span around each layer call, the audited pass, then the layer
// measurements that do not depend on the workload.
func (r *childReport) tracedRun(p *prepared, lsz layerSizes, scratch string) error {
	tr := newTracer()
	var ref, traced []float64
	var gcCPU, allCPU float64
	var cycles uint64
	var points, hits int
	var refWall float64
	for i := 1; i <= tracedPasses || (refWall < lsz.tracedMinWall && i <= tracedMaxPasses); i++ {
		s, res, err := timedPass(p.pass)
		if err != nil {
			return err
		}
		ref = append(ref, s.WallS)
		refWall += s.WallS
		r.account(fmt.Sprintf("reference pass %d", i), res)

		tr.pass = i
		runtime.GC()
		gc0, all0, n0 := gcCounters()
		t0 := time.Now()
		end := tr.begin("pass")
		check, err := p.traced(tr)
		end()
		traced = append(traced, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if res, err = check(); err != nil {
			return err
		}
		runtime.GC() // refreshes the CPU classes; one cycle more than the pass ran
		gc1, all1, n1 := gcCounters()
		gcCPU, allCPU, cycles = gcCPU+gc1-gc0, allCPU+all1-all0, cycles+n1-n0-1
		r.account(fmt.Sprintf("traced pass %d", i), res)
		points, hits = points+res.points, hits+res.hits
	}
	if p.audited != nil {
		violations, stats, err := p.audited()
		if err != nil {
			return err
		}
		if violations != 0 {
			r.breach("audited pass: %d invariant violations", violations)
		}
		if stats != r.Stats {
			r.breach("audited single-shard pass: simulated statistics %+v differ from %+v", stats, r.Stats)
		}
	}

	// The layer measurements are the same whichever workload's traced
	// run makes them, so they do not inherit the workload's own P count.
	runtime.GOMAXPROCS(workerProcs())
	values, breaches, err := measureLayers(lsz, scratch)
	if err != nil {
		return err
	}
	r.Breaches = append(r.Breaches, breaches...)
	st := r.Stats
	values["experiment.events"] = float64(st.Events)
	values["experiment.events_per_s"] = float64(st.Events) / median(ref)
	values["experiment.util"] = st.Util
	values["experiment.afct_us"] = st.AFCTUs
	values["experiment.p99_us"] = st.P99Us
	values["experiment.drops"] = float64(st.Drops)
	values["experiment.completed"] = float64(st.Completed)
	values["bench.generator_share"], values["experiment.run_share"] = tr.passShares("experiment.")
	// Fastest against fastest: a dozen clock reads cost nothing, so with
	// few repeats the medians' ratio would report the machine's noise.
	values["bench.trace_overhead_share"] = slices.Min(traced)/slices.Min(ref) - 1
	values["go.gc_cpu_share"] = 0
	if allCPU > 0 {
		values["go.gc_cpu_share"] = gcCPU / allCPU
	}
	values["go.gc_cycles"] = float64(cycles) / float64(len(traced))

	// The campaign ledger of the traced passes; a workload that runs no
	// campaign resolves no points and reads 0.
	var pointMs []float64
	for _, s := range tr.spans {
		if s.Name == "experiment.point" || s.Name == "campaign.cache_hit" {
			pointMs = append(pointMs, float64(s.End-s.Start)/1e6)
		}
	}
	values["campaign.hit_ratio"], values["campaign.point_ms_p50"], values["campaign.point_ms_max"] = 0, 0, 0
	if points > 0 {
		values["campaign.hit_ratio"] = float64(hits) / float64(points)
		sum := summarize(pointMs)
		values["campaign.point_ms_p50"], values["campaign.point_ms_max"] = sum.Median, sum.Max
	}
	r.Layers, r.Spans = values, tr.spans
	return nil
}
