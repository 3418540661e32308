package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// simStats is what a pass simulated. It is exact: a pass that does not
// reproduce the first pass's simStats, field for field, is a failed
// pass, and a change that only speeds the simulator up must leave it
// identical. Digest covers the outputs the numeric fields do not.
type simStats struct {
	Events    uint64  `json:"events"`
	Completed int     `json:"completed"`
	Total     int     `json:"total"`
	AFCTUs    float64 `json:"afct_us"`
	P99Us     float64 `json:"p99_us"`
	Util      float64 `json:"util"`
	Drops     int64   `json:"drops"`
	Digest    string  `json:"digest,omitempty"`
}

// passResult is the outcome of one pass: operations attempted and
// failed (a flow for the single-run workloads, a figure run for
// paper_figures, a grid point for the sweeps) and the simulated
// statistics.
type passResult struct {
	ops, failed int
	stats       simStats
	// points and hits are the campaign ledger of a sweep pass.
	points, hits int
	// breach names a correctness gate the pass itself failed.
	breach string
}

// verify checks and summarizes what a pass produced. It runs after the
// pass's clock has stopped, so the benchmark's own digests and counts
// are never billed to the simulator.
type verify func() (passResult, error)

// prepared is a workload with its inputs generated.
type prepared struct {
	// pass is one full execution of the inputs through the public API.
	pass func() (verify, error)
	// traced is the same execution with a span around each layer call.
	traced func(tr *tracer) (verify, error)
	// audited, on the single-run workloads, repeats the run with the
	// invariant auditor attached (and on one shard) and returns the
	// auditor's violation count with the simulated statistics, which
	// must equal the unaudited pass's.
	audited func() (violations int64, stats simStats, err error)
}

// benchWorkload is one named set of inputs.
type benchWorkload struct {
	name string
	// maxPasses caps the timed passes of a run whatever the time budget
	// allows, so a fast machine does not measure a different heap. It is
	// split evenly over the run's processes.
	maxPasses int
	// procs is the GOMAXPROCS of the processes that run the workload's
	// passes; 0 means workerProcs().
	procs int
	// prepare generates the inputs from the seed. scratch is a
	// directory the workload may write under.
	prepare func(seed int64, scratch string) (*prepared, error)
}

// sizes scales the inputs: full is what the benchmark measures, quick
// is what the test runs to check names and plumbing.
type sizes struct {
	leafspineFlows int
	fattreeK       int
	fattreeFlows   int
	fattreeDegree  int
	sweepFlows     int
	sweepLoads     []float64
}

var fullSizes = sizes{
	leafspineFlows: 450,
	fattreeK:       8, fattreeFlows: 4096, fattreeDegree: 16,
	sweepFlows: 400, sweepLoads: []float64{0.3, 0.5, 0.7},
}

var quickSizes = sizes{
	leafspineFlows: 20,
	fattreeK:       4, fattreeFlows: 64, fattreeDegree: 8,
	sweepFlows: 10, sweepLoads: []float64{0.5},
}

func workloads(sz sizes) []benchWorkload {
	return []benchWorkload{
		{"leafspine_websearch", 9, 0, func(seed int64, _ string) (*prepared, error) {
			r := runSpec{proto: "AMRT", dist: "WebSearch", load: 0.5 * loadJitter(seed), flows: sz.leafspineFlows,
				seed: 1, timeout: 20 * time.Second, shards: 1}
			return r.prepared(), nil
		}},
		// One P. Two shards that meet at a barrier every window need both
		// processors for the whole pass, and the 2 shared vCPUs the
		// benchmark is checked on do not give that steadily: at GOMAXPROCS 2
		// ten runs of one commit spread 0.79 s around a 2.18 s median, wider
		// than any bound. On one P a pass costs the sharded engine's whole
		// work — both shards' events, the window barrier, the keyed
		// cross-shard hand-off — however the host places threads; what the
		// second core buys is the per-layer netsim.shard_speedup_2.
		{"fattree_incast_shards2", 6, 1, func(seed int64, _ string) (*prepared, error) {
			r := runSpec{proto: "AMRT", dist: "WebSearch", load: 0.6 * loadJitter(seed), flows: sz.fattreeFlows, seed: 1,
				fattreeK: sz.fattreeK, incastDegree: sz.fattreeDegree, incastBytes: 64 << 10,
				timeout: 200 * time.Millisecond, shards: 2}
			return r.prepared(), nil
		}},
		{"paper_figures", 60, 0, func(int64, string) (*prepared, error) {
			// Seedless by construction: the figures run at the fixed
			// seeds the paper reproduction pins.
			return &prepared{
				pass:   func() (verify, error) { return figuresPass(nil), nil },
				traced: func(tr *tracer) (verify, error) { return figuresPass(tr), nil },
			}, nil
		}},
		{"sweep_cold", 5, 0, func(seed int64, scratch string) (*prepared, error) {
			sc := sweepConfig(sz, seed)
			n := 0
			run := func(tr *tracer) (verify, error) {
				// A fresh empty cache per pass: every point is computed
				// and written.
				n++
				c := sc
				c.CacheDir = scratch + "/cold-" + strconv.Itoa(n)
				return sweepPass(c, tr)
			}
			return &prepared{
				pass:   func() (verify, error) { return run(nil) },
				traced: run,
			}, nil
		}},
		{"sweep_warm", 2000, 0, func(seed int64, scratch string) (*prepared, error) {
			sc := sweepConfig(sz, seed)
			sc.CacheDir = scratch + "/warm"
			// Set-up: one cold pass leaves the cache every timed pass
			// reads.
			if err := os.RemoveAll(sc.CacheDir); err != nil {
				return nil, err
			}
			if _, err := sweepPass(sc, nil); err != nil {
				return nil, err
			}
			warm := func(tr *tracer) (verify, error) {
				check, err := sweepPass(sc, tr)
				if err != nil {
					return nil, err
				}
				return func() (passResult, error) {
					res, err := check()
					// Every point of a warm pass must come from the cache.
					if err == nil && res.hits != res.points {
						res.failed = res.ops
						res.breach = fmt.Sprintf("%d of %d points served from the cache, want all", res.hits, res.points)
					}
					return res, err
				}, nil
			}
			return &prepared{
				pass:   func() (verify, error) { return warm(nil) },
				traced: warm,
			}, nil
		}},
	}
}

// runSpec is the benchmark's description of a single-run workload. The
// amrt.Config the simulator receives is derived from it, and so is the
// step-by-step replica of amrt.RunContext the traced run times; the
// correctness gate requires the two to simulate the same thing.
type runSpec struct {
	proto, dist  string
	load         float64
	flows        int
	seed         int64
	fattreeK     int // 0 = the default 4×4×10 leaf–spine
	incastDegree int // > 0 selects the incast pattern
	incastBytes  int64
	timeout      time.Duration
	shards       int
}

func (r runSpec) config() amrt.Config {
	c := amrt.Config{Protocol: r.proto, Workload: r.dist, Load: r.load, Flows: r.flows,
		Seed: r.seed, Timeout: r.timeout, Shards: r.shards}
	if r.fattreeK > 0 {
		c.Topology = amrt.Topology{Kind: "fattree", K: r.fattreeK}
	}
	if r.incastDegree > 0 {
		c.Pattern, c.IncastDegree, c.IncastBytes = "incast", r.incastDegree, r.incastBytes
	}
	return c
}

// builder resolves the fabric the way amrt.Config's topology does for
// the two shapes the benchmark uses.
func (r runSpec) builder() topo.Builder {
	if r.fattreeK > 0 {
		c := topo.DefaultFatTree()
		c.K = r.fattreeK
		c.Jitter = c.HostRate.TxTime(netsim.MSS) / 2
		return c
	}
	c := topo.DefaultLeafSpine()
	c.Jitter = c.HostRate.TxTime(netsim.MSS) / 2
	return c
}

// flowSpecs generates the flows the way amrt.RunContext does.
func (r runSpec) flowSpecs(b topo.Builder) []workload.FlowSpec {
	if r.incastDegree > 0 {
		return workload.GenerateIncast(workload.IncastConfig{
			Hosts: b.Hosts(), Degree: r.incastDegree, Bytes: r.incastBytes,
			Load: r.load, HostRate: b.AccessRate(), Count: r.flows, Seed: r.seed,
		})
	}
	return workload.GeneratePoisson(workload.PoissonConfig{
		Hosts: b.Hosts(), Load: r.load, HostRate: b.AccessRate(),
		Dist: workload.ByName(r.dist), Count: r.flows, Seed: r.seed,
	})
}

// loadJitter maps the workload seed to a factor within ±1% of 1 that
// scales a heavy-tailed workload's offered load. Seed 1 maps to exactly
// 1.
//
// The seed cannot simply become Config.Seed on these workloads: a few
// hundred heavy-tailed flows vary ±25% in work from one flow set to the
// next (5.7 M – 10.3 M events over seeds 1–16 of leafspine_websearch,
// ±15% over a 30-point sweep), which no regression bound survives, and
// screening flow sets by input size still leaves ±4%, because the drops
// a particular set of elephants provokes are not predictable from the
// inputs. So those workloads keep the flow sets of simulator seed 1
// (and 2), and the workload seed perturbs the arrival process instead:
// scaling the load by 0.1% already sends the run down a different
// trajectory (other collisions, ±5% drops, ±1% events), while bytes,
// endpoints and sizes — the stated input size — stay fixed. The
// fat-tree's fixed-size blocks vary far less from one flow set to the
// next (±1.5% in allocations), but that is still a third of the
// allocation counters' bound, so it takes the jitter too (±0.3%).
func loadJitter(seed int64) float64 {
	j := ((seed-1)*7919%2001 + 2001) % 2001 // 0..2000, 0 at seed 1
	if j > 1000 {
		j -= 2001
	}
	return 1 + float64(j)/100_000
}

func (r runSpec) prepared() *prepared {
	cfg := r.config()
	return &prepared{
		pass: func() (verify, error) {
			res, err := amrt.RunContext(context.Background(), cfg)
			return func() (passResult, error) {
				return flowsResult(simStats{
					Events: res.Events, Completed: res.Completed, Total: res.Total,
					AFCTUs: float64(res.AFCT) / 1e3, P99Us: float64(res.P99) / 1e3,
					Util: res.Utilization, Drops: res.Drops,
				}, res.Stalled+res.Killed+res.DeadlineMissed), nil
			}, err
		},
		traced: func(tr *tracer) (verify, error) {
			res, err := r.steps(tr, false, r.shards)
			if err != nil {
				return nil, err
			}
			end := tr.begin("amrt.summarize")
			out := flowsResult(runStats(res), res.Stalled+res.Killed+res.DeadlineMissed)
			end()
			return func() (passResult, error) { return out, nil }, nil
		},
		audited: func() (int64, simStats, error) {
			res, err := r.steps(newTracer(), true, 1)
			return res.AuditViolations, runStats(res), err
		},
	}
}

// flowsResult counts a single run's operations: every flow is one, and
// a flow that did not complete, or completed only after the watchdog
// flagged it, a crash killed it or its deadline passed, failed.
func flowsResult(st simStats, flagged int) passResult {
	failed := st.Total - st.Completed + flagged
	if failed > st.Total {
		failed = st.Total
	}
	return passResult{ops: st.Total, failed: failed, stats: st}
}

func runStats(res experiment.RunResult) simStats {
	return simStats{
		Events: res.Events, Completed: res.Completed, Total: res.Total,
		AFCTUs: float64(res.AFCT.Duration()) / 1e3, P99Us: float64(res.P99.Duration()) / 1e3,
		Util: res.Utilization, Drops: res.Drops,
	}
}

// steps performs what amrt.RunContext performs, one layer call at a
// time with a span around each.
func (r runSpec) steps(tr *tracer, audit bool, shards int) (experiment.RunResult, error) {
	end := tr.begin("amrt.validate")
	err := r.config().Validate()
	end()
	if err != nil {
		return experiment.RunResult{}, err
	}
	end = tr.begin("topo.config")
	b := r.builder()
	end()
	end = tr.begin("workload.generate")
	flows := r.flowSpecs(b)
	end()
	end = tr.begin("experiment.new_stack")
	st, err := experiment.NewStack(r.proto, experiment.StackOptions{})
	end()
	if err != nil {
		return experiment.RunResult{}, err
	}
	end = tr.begin("experiment.run")
	res, err := experiment.LeafSpineRun{Topo: b, Flows: flows, Stack: st,
		Horizon: sim.FromDuration(r.timeout), Audit: audit, Shards: shards}.RunE()
	end()
	return res, err
}

// paperRef holds PAPER.md's pHost utilizations: Fig 1's three phases
// and Fig 2's four.
var paperRef = struct{ fig1, fig2 []float64 }{
	fig1: []float64{1.00, 0.83, 0.66},
	fig2: []float64{1.00, 0.75, 0.50, 0.25},
}

// paperErrMax is the largest absolute difference, in utilization
// points, between the phase utilizations `cmd/figures -fig 1` and
// `-fig 2` print for pHost and the paper's. It uses simulated time only
// and repeats exactly.
func paperErrMax(fig1, fig2 experiment.MotivationResult) (float64, error) {
	worst := 0.0
	check := func(tab *experiment.Table, ref []float64) error {
		if len(tab.Rows) < len(ref) {
			return fmt.Errorf("%s: %d phases, the paper has %d", tab.Title, len(tab.Rows), len(ref))
		}
		for i, want := range ref {
			got, err := strconv.ParseFloat(tab.Rows[i][2], 64)
			if err != nil {
				return fmt.Errorf("%s: phase %d: %w", tab.Title, i, err)
			}
			worst = math.Max(worst, math.Abs(got-want))
		}
		return nil
	}
	if err := check(fig1.Phases, paperRef.fig1); err != nil {
		return 0, err
	}
	if err := check(fig2.Phases, paperRef.fig2); err != nil {
		return 0, err
	}
	return worst, nil
}

func mustStack(name string) experiment.Stack {
	return experiment.MustStack(name, experiment.StackOptions{})
}

// figuresPass reproduces Fig 1 and Fig 2 for pHost and AMRT, Fig 9 for
// AMRT and Fig 11 for all five stacks. Each figure run is an operation;
// it fails when a testbed flow does not complete.
func figuresPass(tr *tracer) verify {
	spanned := func(name string, fn func()) {
		if tr != nil {
			defer tr.begin(name)()
		}
		fn()
	}
	var motivation []experiment.MotivationResult
	for _, proto := range []string{"pHost", "AMRT"} {
		spanned("experiment.fig1."+proto, func() { motivation = append(motivation, experiment.Fig1(mustStack(proto))) })
		spanned("experiment.fig2."+proto, func() { motivation = append(motivation, experiment.Fig2(mustStack(proto))) })
	}
	var testbed []experiment.TestbedResult
	var fig11 *experiment.Table
	spanned("experiment.fig9.AMRT", func() { testbed = append(testbed, experiment.Fig9(mustStack("AMRT"))) })
	spanned("experiment.fig11.all", func() {
		var all []experiment.TestbedResult
		all, fig11 = experiment.Fig11All()
		testbed = append(testbed, all...)
	})
	return func() (passResult, error) { return figuresResult(motivation, testbed, fig11), nil }
}

// figuresResult digests every table the figures print and summarizes
// the testbed flows.
func figuresResult(motivation []experiment.MotivationResult, testbed []experiment.TestbedResult, fig11 *experiment.Table) passResult {
	var digest bytes.Buffer
	var utils []float64
	for _, m := range motivation {
		m.Phases.Fprint(&digest)
		utils = append(utils, m.Util.Mean())
	}
	fig11.Fprint(&digest)
	res := passResult{ops: len(motivation) + len(testbed)}
	var fcts []float64
	for _, r := range testbed {
		r.Summary.Fprint(&digest)
		ok := true
		for _, f := range r.Flows {
			res.stats.Total++
			if !f.Done {
				ok = false
				continue
			}
			res.stats.Completed++
			fcts = append(fcts, f.FCT().Microseconds())
		}
		if !ok {
			res.failed++
		}
	}
	for _, v := range fcts {
		res.stats.AFCTUs += v / float64(len(fcts))
		res.stats.P99Us = math.Max(res.stats.P99Us, v)
	}
	for _, u := range utils {
		res.stats.Util += u / float64(len(utils))
	}
	sum := sha256.Sum256(digest.Bytes())
	res.stats.Digest = hex.EncodeToString(sum[:8])
	return res
}

// sweepConfig is the campaign both sweep workloads run: five stacks ×
// WebServer × loads × simulator seeds {1, 2}, the loads scaled by the
// workload seed's jitter.
func sweepConfig(sz sizes, seed int64) amrt.SweepConfig {
	loads := make([]float64, len(sz.sweepLoads))
	for i, l := range sz.sweepLoads {
		loads[i] = l * loadJitter(seed)
	}
	return amrt.SweepConfig{
		Protocols: amrt.Protocols(),
		Workloads: []string{"WebServer"},
		Loads:     loads,
		Seeds:     []int64{1, 2},
		Base:      amrt.Config{Flows: sz.sweepFlows},
		Workers:   2,
	}
}

// sweepPass runs the campaign. Each grid point is an operation; it
// fails when the campaign reports it failed or its flows did not all
// complete. With a tracer, the sweep is one span and every resolved
// point a child span from one progress callback to the next: computed
// points are named experiment.point, cache hits campaign.cache_hit.
func sweepPass(sc amrt.SweepConfig, tr *tracer) (verify, error) {
	type tick struct {
		at   int64
		name string
	}
	var (
		mu    sync.Mutex
		ticks []tick
	)
	if tr != nil {
		sc.Progress = func(p amrt.SweepProgress) {
			name := "experiment.point"
			if p.FromCache {
				name = "campaign.cache_hit"
			}
			mu.Lock()
			ticks = append(ticks, tick{tr.now(), name})
			mu.Unlock()
		}
	}
	var end func()
	var start int64
	if tr != nil {
		start = tr.now()
		end = tr.begin("campaign.sweep")
	}
	sr, err := amrt.Sweep(context.Background(), sc)
	if tr != nil {
		for _, tk := range ticks {
			tr.add(tk.name, start, tk.at)
			start = tk.at
		}
		end()
	}
	if err != nil {
		return nil, err
	}
	return func() (passResult, error) { return sweepResult(sr) }, nil
}

// sweepResult counts a campaign's points and digests its report.
func sweepResult(sr *amrt.SweepResult) (passResult, error) {
	res := passResult{ops: sr.TotalPoints, failed: sr.TotalPoints - len(sr.Points),
		points: sr.TotalPoints, hits: sr.CacheHits}
	st := &res.stats
	for _, p := range sr.Points {
		r := p.Result
		st.Events += r.Events
		st.Completed += r.Completed
		st.Total += r.Total
		st.Drops += r.Drops
		st.AFCTUs += float64(r.AFCT) / 1e3 / float64(len(sr.Points))
		st.Util += r.Utilization / float64(len(sr.Points))
		st.P99Us = math.Max(st.P99Us, float64(r.P99)/1e3)
		if r.Completed < r.Total {
			res.failed++
		}
	}
	var report bytes.Buffer
	if err := sr.WriteJSON(&report); err != nil {
		return passResult{}, err
	}
	sum := sha256.Sum256(report.Bytes())
	st.Digest = hex.EncodeToString(sum[:8])
	return res, nil
}
