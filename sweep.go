package amrt

import (
	"cmp"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"amrt/internal/campaign"
	"amrt/internal/experiment"
	"amrt/internal/homa"
	"amrt/internal/sird"
	"amrt/internal/stats"
)

// SweepConfig declares a sweep campaign: the cartesian product of the
// axes, each point run as Base with the axis values substituted. Axis
// slices left nil default to a single value taken from Base (after
// normalization), so the zero SweepConfig sweeps one default point.
type SweepConfig struct {
	// Protocols lists the protocols to sweep (default: the comparison
	// set, in Protocols() order).
	Protocols []string
	// Workloads lists the workloads to sweep (default: Base.Workload).
	Workloads []string
	// Topologies lists topology specs to sweep, in the ParseTopology
	// grammar (e.g. "fattree:k=4"); an empty string is Base.Topology
	// (default: one Base.Topology axis value). docs/TOPOLOGIES.md
	// documents the grammar and families.
	Topologies []string
	// Degrees lists incast fan-ins to sweep; 0 is Base.IncastDegree
	// (default: one Base.IncastDegree axis value). The axis only
	// changes results when Base.Pattern is "incast".
	Degrees []int
	// Loads lists the offered-load fractions to sweep (default:
	// Base.Load).
	Loads []float64
	// Seeds lists the RNG seeds each cell is repeated under; the
	// per-cell summaries carry 95% confidence half-widths across them
	// (default: Base.Seed). A 0 seed runs as seed 1, as in Config, and
	// is reported as 1; a seed may appear once.
	Seeds []int64
	// Faults lists fault-injection specs to sweep; an empty string is
	// a fault-free run (default: Base.Faults).
	Faults []string

	// Base supplies everything the axes do not: topology, flow count,
	// Homa degree, timeout. Its Protocol/Workload/Load/Seed/Faults
	// fields seed the axis defaults; its trace and metrics output
	// paths are ignored — sweep points run without per-run dumps so
	// results are cacheable byte-for-byte. Its Shards is honoured but
	// kept out of the cache key: results are byte-identical at every
	// shard count (docs/PARALLELISM.md), so one cache serves them all.
	Base Config

	// CacheDir, when set, is the resumable result cache: every
	// completed point is persisted under a digest of its normalized
	// Config plus SimVersion, and a re-invoked campaign — same grid,
	// same cache directory — recomputes nothing. Empty disables
	// caching.
	CacheDir string

	// Workers caps the worker pool below the GOMAXPROCS ceiling;
	// <= 0 uses all of GOMAXPROCS.
	Workers int

	// CellTimeout bounds every point with a per-cell
	// context.WithTimeout; a point that exceeds it fails. 0 means no
	// per-cell bound. A failed point is not run again: it is a pure
	// function of its config, so a second run would fail the same way.
	CellTimeout time.Duration
	// Quarantine keeps the campaign running when a point fails: the
	// point is recorded in SweepResult.Failed and every other point
	// proceeds. The default (false) is the strict
	// first-error-cancels-all behavior the CLI and tests rely on.
	Quarantine bool

	// Progress, when non-nil, is called after every resolved point
	// (completed, or quarantined under Quarantine),
	// serialized. It may cancel the sweep's context; it must not block
	// for long.
	Progress func(SweepProgress)
}

// SweepCoord is a sweep point's coordinate: protocol, workload,
// topology spec, incast degree, load, seed and fault spec. It is
// declared once, in internal/campaign, carried by SweepProgress and
// embedded by SweepPoint, SweepCell (with Seed zero) and SweepFailure;
// its String method renders it for progress and failure lines.
type SweepCoord = campaign.Point

// SweepProgress is one live-progress report: campaign position
// (Done of Total), cache ledger so far (Hits, Misses), quarantined
// points so far (Failed), and the point that just resolved (Point,
// FromCache, and Err, the error text of a quarantined point).
type SweepProgress = campaign.Progress

// SweepStat is a mean with spread over the seeds of one sweep cell:
// 95% confidence half-width (Student's t), sample min and max.
type SweepStat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// SweepPoint is one completed run of a campaign.
type SweepPoint struct {
	SweepCoord
	// FromCache reports whether this point was rehydrated rather than
	// computed. It is deliberately excluded from the serialized report:
	// a resumed campaign must produce byte-identical output.
	FromCache bool   `json:"-"`
	Result    Result `json:"result"`
}

// SweepCell aggregates one protocol × workload × topology × degree ×
// load × faults combination across its seeds: completion times in
// microseconds, utilization as a fraction, counters summed. Its
// coordinate's Seed is zero and omitted from the report.
type SweepCell struct {
	SweepCoord
	Seeds int `json:"seeds"`

	AFCTUs      SweepStat `json:"afct_us"`
	P99Us       SweepStat `json:"p99_us"`
	Utilization SweepStat `json:"utilization"`

	Completed int   `json:"completed"`
	Total     int   `json:"total"`
	Drops     int64 `json:"drops"`
	Trims     int64 `json:"trims"`

	// DeadlineTotal and DeadlineMissed sum the cell's deadline ledger
	// across seeds; both are zero outside deadline-RPC campaigns.
	DeadlineTotal  int `json:"deadline_total,omitempty"`
	DeadlineMissed int `json:"deadline_missed,omitempty"`
}

// SweepFailure is one point that failed: its grid coordinates and its
// error text. Failures are only reported with SweepConfig.Quarantine
// set; the strict default aborts instead.
type SweepFailure struct {
	SweepCoord
	Error string `json:"error"`
}

// SweepResult is a campaign report: every point in grid order, the
// per-cell aggregates, and the cache ledger. Repeated campaigns against
// the same cache produce byte-identical WriteJSON/WriteCSV reports: the
// serialization carries no timestamps, no map iteration, and none of
// the run-mechanics fields (CacheHits, CacheMisses, per-point
// FromCache), which describe how this invocation executed rather than
// what it measured.
type SweepResult struct {
	Version     string `json:"version"`
	TotalPoints int    `json:"total_points"`
	// CacheHits and CacheMisses are this invocation's cache ledger,
	// excluded from the serialized report (see above).
	CacheHits   int          `json:"-"`
	CacheMisses int          `json:"-"`
	Cells       []SweepCell  `json:"cells"`
	Points      []SweepPoint `json:"points"`
	// Failed lists the points quarantined under
	// SweepConfig.Quarantine, in grid order. Empty (and omitted from serialization) on clean
	// campaigns, so degraded-mode support never perturbs the
	// byte-identical resume guarantee of healthy ones.
	Failed []SweepFailure `json:"failed,omitempty"`
}

// Validate checks the campaign declaration: CellTimeout must be
// non-negative (ErrBadPolicy), the grid must expand to at least
// one point, every expanded point's Config must validate (same typed
// sentinels as Config.Validate), and no two points may be the same run.
// Two points are the same run when their cache keys match: a value
// repeated on any axis, a 0 seed beside seed 1, or an axis value that
// names the base's own default (a degree, a topology spec). Counted
// twice, such a run would pass for two seeds with a zero confidence
// interval. Sweep validates before executing; the daemon (`amrtsim
// serve`) calls this at job-submission time so malformed specs are
// rejected with a 400 instead of a failed job.
func (sc SweepConfig) Validate() error {
	_, _, err := sc.resolve()
	return err
}

// sweepPoint is one resolved grid point: its normalized, validated
// Config and that Config's cache key.
type sweepPoint struct {
	cfg Config
	key string
}

// resolve checks the declaration (see Validate) and resolves the grid
// once: the expanded points and, index for index, each point's Config
// and cache key.
func (sc SweepConfig) resolve() ([]campaign.Point, []sweepPoint, error) {
	if sc.CellTimeout < 0 {
		return nil, nil, fmt.Errorf("%w: negative cell timeout %v", ErrBadPolicy, sc.CellTimeout)
	}
	points := sc.grid().Expand()
	if len(points) == 0 {
		return nil, nil, errors.New("amrt: empty sweep grid")
	}
	resolved := make([]sweepPoint, len(points))
	first := make(map[string]int, len(points))
	// Each topology's canonical string is built once.
	canonical := make(map[Topology]string)
	for i, p := range points {
		cfg, err := sc.pointConfig(p)
		if err != nil {
			return nil, nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
		topo, ok := canonical[cfg.Topology]
		if !ok {
			topo = canonicalTopology(cfg.Topology)
			canonical[cfg.Topology] = topo
		}
		key := pointKey(cfg, topo)
		if j, dup := first[key]; dup {
			return nil, nil, fmt.Errorf("amrt: sweep points %q and %q are the same run (a repeated axis value, a 0 seed beside 1, or the base's own default)",
				points[j], p)
		}
		first[key] = i
		resolved[i] = sweepPoint{cfg: cfg, key: key}
	}
	return points, resolved, nil
}

// Sweep expands the campaign grid, validates and resolves every point
// once up front (typed errors, see Validate), and executes the points
// across the worker pool with per-point result caching under CacheDir.
// On context cancellation it stops dispatching promptly, aborts
// in-flight simulations via the engine interrupt, and returns the
// completed points — already aggregated — together with ctx.Err(), so
// an interrupted campaign plus its cache is a resumable checkpoint, not
// lost work. Every point runs once, bounded by CellTimeout; without
// Quarantine the first failing point aborts the campaign.
func Sweep(ctx context.Context, sc SweepConfig) (*SweepResult, error) {
	points, resolved, err := sc.resolve()
	if err != nil {
		return nil, err
	}
	// resolve refused repeated keys, so every coordinate is distinct.
	byPoint := make(map[campaign.Point]*sweepPoint, len(points))
	for i, p := range points {
		byPoint[p] = &resolved[i]
	}
	ccfg := campaign.Config{
		Points:      points,
		Workers:     sc.Workers,
		CellTimeout: sc.CellTimeout,
		Quarantine:  sc.Quarantine,
		Progress:    sc.Progress,
		Key:         func(p campaign.Point) string { return byPoint[p].key },
		Run: func(ctx context.Context, p campaign.Point) ([]byte, campaign.Metrics, error) {
			res, err := RunContext(ctx, byPoint[p].cfg)
			if err != nil {
				return nil, campaign.Metrics{}, err
			}
			payload, err := encodePoint(res)
			if err != nil {
				return nil, campaign.Metrics{}, err
			}
			return payload, metricsOf(res), nil
		},
		Decode: decodePoint,
	}
	if sc.CacheDir != "" {
		cache, err := campaign.NewCache(sc.CacheDir)
		if err != nil {
			return nil, err
		}
		defer cache.Close()
		ccfg.Cache = cache
	}
	cres, err := campaign.Run(ctx, ccfg)
	if cres == nil {
		return nil, err
	}
	out, buildErr := buildSweepResult(len(points), cres)
	if err == nil {
		err = buildErr
	}
	return out, err
}

// grid resolves the axis defaults against the normalized base config.
func (sc SweepConfig) grid() campaign.Grid {
	base := sc.Base.normalized()
	g := campaign.Grid{
		Protocols:  sc.Protocols,
		Workloads:  sc.Workloads,
		Topologies: sc.Topologies,
		Degrees:    sc.Degrees,
		Loads:      sc.Loads,
		Faults:     sc.Faults,
	}
	if len(g.Protocols) == 0 {
		g.Protocols = Protocols()
	}
	if len(g.Workloads) == 0 {
		g.Workloads = []string{base.Workload}
	}
	if len(g.Loads) == 0 {
		g.Loads = []float64{base.Load}
	}
	if len(sc.Seeds) == 0 {
		g.Seeds = []int64{base.Seed}
	}
	// Config.normalized runs seed 0 as seed 1; the point says so, so a
	// report never shows a seed other than the one that ran.
	for _, s := range sc.Seeds {
		g.Seeds = append(g.Seeds, cmp.Or(s, 1))
	}
	if len(g.Faults) == 0 {
		g.Faults = []string{base.Faults}
	}
	return g
}

// pointConfig instantiates one grid point as a normalized Config with
// the per-run output paths stripped (a cached point must not depend on
// side-effect files). A non-empty point topology spec replaces the
// base fabric; a malformed one is the only way this can fail.
func (sc SweepConfig) pointConfig(p campaign.Point) (Config, error) {
	c := sc.Base
	c.Protocol = p.Protocol
	// The shared Base options are narrowed to each leg's own fields,
	// exactly as Compare does: a grid spanning Homa and SIRD may carry
	// knobs for both without tripping ErrBadStackOption on either.
	c.Options = experiment.NarrowOptions(p.Protocol, sc.Base.Options)
	c.Workload = p.Workload
	if p.Topology != "" {
		t, err := ParseTopology(p.Topology)
		if err != nil {
			return Config{}, err
		}
		c.Topology = t
	}
	if p.Degree != 0 {
		c.IncastDegree = p.Degree
	}
	c.Load = p.Load
	c.Seed = p.Seed
	c.Faults = p.Faults
	c.TracePath = ""
	c.MetricsPath = ""
	c.MetricsCSVPath = ""
	c.MetricsInterval = 0
	return c.normalized(), nil
}

// sweepKey digests a normalized point config into its cache address:
// every field that influences the simulation outcome, canonically
// encoded, plus SimVersion (see campaign.Key and docs/API.md).
//
// Shards is deliberately absent: the sharded engine produces
// byte-identical results at every shard count (docs/PARALLELISM.md), so
// a cache populated at one Base.Shards must satisfy campaigns run at any
// other — TestSweepCacheSharedAcrossShardCounts pins this down.
func sweepKey(c Config) string {
	return pointKey(c, canonicalTopology(c.Topology))
}

// canonicalTopology is the builder's canonical string of a validated
// topology: every result-influencing field with defaults applied.
func canonicalTopology(t Topology) string {
	b, err := t.builder()
	if err != nil {
		panic(fmt.Sprintf("amrt: validated topology failed to resolve: %v", err))
	}
	return b.Canonical()
}

// pointKey is sweepKey given c.Topology's canonical string, which
// resolve computes once per distinct topology of a grid.
func pointKey(c Config, topo string) string {
	var buf [512]byte
	k := campaign.NewKeyWriter(buf[:0], SimVersion)
	k.Str("protocol", c.Protocol)
	k.Str("workload", c.Workload)
	k.Str("pattern", c.Pattern)
	k.Float("load", c.Load)
	k.Int("flows", int64(c.Flows))
	k.Int("seed", c.Seed)
	k.Str("topo", topo)
	k.Int("incastdegree", int64(c.IncastDegree))
	k.Int("incastbytes", c.IncastBytes)
	k.Int("shufflewidth", int64(c.ShuffleWidth))
	k.Int("shufflebytes", c.ShuffleBytes)
	k.Int("rpcrequest", c.RPCRequestBytes)
	k.Int("rpcresponse", c.RPCResponseBytes)
	k.Int("rpcdeadline", c.RPCDeadline.Nanoseconds())
	// The effective degree and staleness window: an unset option runs
	// the stack's default and caches as it.
	k.Int("homadegree", int64(cmp.Or(c.Options.HomaDegree, homa.DefaultConfig().Degree)))
	k.Int("sirdpool", c.Options.SIRDPoolBytes)
	k.Int("sirdstaleness", int64(cmp.Or(c.Options.SIRDStalenessRTTs, sird.DefaultConfig().StalenessRTTs)))
	k.Int("timeout", c.Timeout.Nanoseconds())
	k.Str("faults", c.Faults)
	k.Bool("audit", c.Audit)
	return k.Sum()
}

// metricsOf projects a Result onto the campaign aggregation record.
func metricsOf(r Result) campaign.Metrics {
	return campaign.Metrics{
		AFCTUs:      float64(r.AFCT) / float64(time.Microsecond),
		P99Us:       float64(r.P99) / float64(time.Microsecond),
		Utilization: r.Utilization,
		Completed:   r.Completed,
		Total:       r.Total,
		Drops:       r.Drops,
		Trims:       r.Trims,

		DeadlineTotal:  r.DeadlineTotal,
		DeadlineMissed: r.DeadlineMissed,
	}
}

// buildSweepResult converts the campaign outcome into the public report.
// A cache hit's Result was decoded by the campaign; only computed
// points are decoded here.
func buildSweepResult(total int, cres *campaign.Result) (*SweepResult, error) {
	out := &SweepResult{
		Version:     SimVersion,
		TotalPoints: total,
		CacheHits:   cres.Hits,
		CacheMisses: cres.Misses,
	}
	// slices.Grow keeps an empty report's slices nil, serialized as null.
	out.Points = slices.Grow(out.Points, len(cres.Points))
	for _, o := range cres.Points {
		v := o.Value
		if v == nil {
			var err error
			if v, _, err = decodePoint(o.Payload); err != nil {
				return out, fmt.Errorf("amrt: decoding sweep point payload: %w", err)
			}
		}
		out.Points = append(out.Points, SweepPoint{SweepCoord: o.Point, FromCache: o.FromCache, Result: *v.(*Result)})
	}
	for _, f := range cres.Failed {
		out.Failed = append(out.Failed, SweepFailure{SweepCoord: f.Point, Error: f.Error})
	}
	out.Cells = slices.Grow(out.Cells, len(cres.Cells))
	for _, c := range cres.Cells {
		out.Cells = append(out.Cells, SweepCell{
			SweepCoord:  c.Point,
			Seeds:       c.Seeds,
			AFCTUs:      sweepStat(c.AFCTUs),
			P99Us:       sweepStat(c.P99Us),
			Utilization: sweepStat(c.Utilization),
			Completed:   c.Completed, Total: c.Total,
			Drops: c.Drops, Trims: c.Trims,
			DeadlineTotal: c.DeadlineTotal, DeadlineMissed: c.DeadlineMissed,
		})
	}
	return out, nil
}

// sweepStat projects an internal stats.Summary onto the public report
// shape.
func sweepStat(s stats.Summary) SweepStat {
	return SweepStat{Mean: s.Mean, CI95: s.CI95, Min: s.Min, Max: s.Max}
}

// WriteJSON writes the full campaign report as indented JSON. The
// output is deterministic: same grid + same cache ⇒ identical bytes.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the per-cell aggregate table as CSV, one row per
// protocol × workload × topology × degree × load × faults cell.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"protocol", "workload", "topology", "degree", "load", "faults", "seeds",
		"afct_us_mean", "afct_us_ci95", "p99_us_mean", "p99_us_ci95",
		"util_mean", "util_ci95", "completed", "total", "drops", "trims",
		"deadline_total", "deadline_missed",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range r.Cells {
		row := []string{
			c.Protocol, c.Workload, c.Topology, strconv.Itoa(c.Degree),
			f(c.Load), c.Faults, strconv.Itoa(c.Seeds),
			f(c.AFCTUs.Mean), f(c.AFCTUs.CI95), f(c.P99Us.Mean), f(c.P99Us.CI95),
			f(c.Utilization.Mean), f(c.Utilization.CI95),
			strconv.Itoa(c.Completed), strconv.Itoa(c.Total),
			strconv.FormatInt(c.Drops, 10), strconv.FormatInt(c.Trims, 10),
			strconv.Itoa(c.DeadlineTotal), strconv.Itoa(c.DeadlineMissed),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
