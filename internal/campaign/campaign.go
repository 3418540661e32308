package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"amrt/internal/experiment"
	"amrt/internal/stats"
)

// Metrics is the numeric slice of one run's result that aggregation
// needs: completion times in microseconds, utilization, and the
// bookkeeping counters. The full result stays opaque payload bytes (or
// the caller's decoded value, see Outcome.Value).
type Metrics struct {
	AFCTUs      float64
	P99Us       float64
	Utilization float64
	Completed   int
	Total       int
	Drops       int64
	Trims       int64
	// DeadlineTotal and DeadlineMissed count deadline-carrying flows
	// and their misses; both are zero outside deadline-RPC runs.
	DeadlineTotal  int
	DeadlineMissed int
}

// Outcome is one completed point: its payload (opaque bytes),
// its aggregation metrics, and whether it was served from the cache.
// Value is what Config.Decode made of a cache hit's payload, so the
// caller need not decode it again; it is nil for a computed point,
// whose Run returned only bytes and metrics.
type Outcome struct {
	Point     Point
	Payload   []byte
	Metrics   Metrics
	Value     any
	FromCache bool
}

// Cell aggregates every same-cell outcome (all seeds of one
// protocol × workload × load × fault combination) into summary
// statistics with 95% confidence half-widths (stats.Describe).
type Cell struct {
	Point Point // Seed is zero: the cell coordinate
	Seeds int

	AFCTUs      stats.Summary
	P99Us       stats.Summary
	Utilization stats.Summary

	Completed int
	Total     int
	Drops     int64
	Trims     int64
	// DeadlineTotal and DeadlineMissed sum the cell's deadline ledger
	// across seeds; both are zero outside deadline-RPC campaigns.
	DeadlineTotal  int
	DeadlineMissed int
}

// Progress is delivered to the Config.Progress hook after every
// resolved point — completed, or quarantined under Config.Quarantine.
// Callbacks run serialized under the campaign's lock: they may cancel
// the campaign's context but must not block for long.
type Progress struct {
	Done   int
	Total  int
	Hits   int
	Misses int
	// Failed counts points quarantined so far (always zero without
	// Config.Quarantine, which cancels on the first failure).
	Failed    int
	Point     Point
	FromCache bool
	// Err carries the failed point's error text when this update
	// reports a quarantined failure; empty on success.
	Err string
}

// PointFailure is one quarantined point and its error text.
type PointFailure struct {
	Point Point  `json:"point"`
	Error string `json:"error"`
}

// Config wires one campaign run.
type Config struct {
	// Points is the expanded grid (Grid.Expand), executed in order
	// across the worker pool.
	Points []Point
	// Workers caps parallelism below the GOMAXPROCS ceiling; <= 0
	// means the full experiment.ParallelCtx pool.
	Workers int
	// Cache, when non-nil, memoizes completed points under Key(p).
	Cache *Cache
	// Key derives the cache address of a point (ignored without Cache).
	Key func(Point) string
	// Run computes one point: canonical payload bytes plus metrics.
	// It must honor ctx for prompt cancellation.
	Run func(ctx context.Context, p Point) ([]byte, Metrics, error)
	// Decode rehydrates a cached payload into the caller's value and
	// its Metrics (required when Cache is set). It runs once per cache
	// hit; the value rides on Outcome.Value. An error makes the hit a
	// miss.
	Decode func(payload []byte) (any, Metrics, error)
	// Progress, when non-nil, observes every resolved point.
	Progress func(Progress)
	// CellTimeout bounds each point with context.WithTimeout; a point
	// that exceeds it fails without cancelling the campaign by itself.
	// Zero means no per-point bound.
	CellTimeout time.Duration
	// Quarantine, when set, records a failed point in Result.Failed,
	// its error verbatim, and keeps the campaign running. Unset, the
	// first failed point cancels every remaining point.
	Quarantine bool
}

// Result is what a campaign returns: per-point outcomes in grid order
// (cancelled or failed points omitted), per-cell aggregates over the
// points that did complete, the quarantine list (failed points in grid
// order; always empty without Config.Quarantine), and the cache ledger.
type Result struct {
	Points []Outcome
	Cells  []Cell
	Failed []PointFailure
	Hits   int
	Misses int
}

// Run executes the campaign. On context cancellation it stops
// dispatching promptly, keeps every already-completed point, and
// returns the partial Result together with ctx.Err(). Every point runs
// once: it is a pure function of its config, so a failure (cache I/O,
// runner error, cell timeout) would recur on a second run. By default
// the first failure cancels the remaining points and surfaces with the
// partial Result; with Quarantine the failed point lands in
// Result.Failed and the rest of the campaign proceeds. A panic inside a
// runner propagates as *experiment.WorkerPanic, matching the figure
// harness's contract.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Run == nil {
		return nil, errors.New("campaign: Config.Run is required")
	}
	if cfg.Cache != nil && (cfg.Key == nil || cfg.Decode == nil) {
		return nil, errors.New("campaign: Cache requires both Key and Decode")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := &Result{}
	var mu sync.Mutex
	var firstErr error
	done := 0
	n := len(cfg.Points)
	failures := make([]*PointFailure, n)
	failed := 0
	outcomes, _, _ := experiment.ParallelCtx(runCtx, n, cfg.Workers, func(i int) *Outcome {
		o, err := runPoint(runCtx, cfg, cfg.Points[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if runCtx.Err() != nil {
				// Campaign cancelled: the point was aborted, not
				// poisoned — cancellation surfaces as ctx.Err() below.
				return nil
			}
			if !cfg.Quarantine {
				// The first genuine point failure stops the rest of
				// the sweep.
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return nil
			}
			failures[i] = &PointFailure{Point: cfg.Points[i], Error: err.Error()}
			done++
			failed++
			if cfg.Progress != nil {
				cfg.Progress(Progress{
					Done: done, Total: n, Hits: res.Hits, Misses: res.Misses,
					Failed: failed, Point: cfg.Points[i], Err: err.Error(),
				})
			}
			return nil
		}
		done++
		if o.FromCache {
			res.Hits++
		} else {
			res.Misses++
		}
		if cfg.Progress != nil {
			cfg.Progress(Progress{
				Done: done, Total: n, Hits: res.Hits, Misses: res.Misses,
				Failed: failed, Point: o.Point, FromCache: o.FromCache,
			})
		}
		return o
	})
	res.Points = make([]Outcome, 0, len(outcomes))
	for _, o := range outcomes {
		if o != nil {
			res.Points = append(res.Points, *o)
		}
	}
	// Quarantined failures assemble in grid order regardless of which
	// worker recorded them first, so reports stay deterministic.
	for _, f := range failures {
		if f != nil {
			res.Failed = append(res.Failed, *f)
		}
	}
	res.Cells = Aggregate(res.Points)
	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runPoint resolves one point under the cell timeout: cache probe,
// then compute + store.
func runPoint(ctx context.Context, cfg Config, p Point) (*Outcome, error) {
	if cfg.CellTimeout <= 0 {
		return resolvePoint(ctx, cfg, p)
	}
	cellCtx, cancel := context.WithTimeout(ctx, cfg.CellTimeout)
	defer cancel()
	o, err := resolvePoint(cellCtx, cfg, p)
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("campaign: point exceeded cell timeout %v: %w", cfg.CellTimeout, err)
	}
	return o, err
}

// resolvePoint is runPoint without the timeout.
func resolvePoint(ctx context.Context, cfg Config, p Point) (*Outcome, error) {
	var key string
	if cfg.Cache != nil {
		key = cfg.Key(p)
		if payload, ok := cfg.Cache.Get(key); ok {
			v, m, err := cfg.Decode(payload)
			if err == nil {
				return &Outcome{Point: p, Payload: payload, Metrics: m, Value: v, FromCache: true}, nil
			}
			// An entry whose payload no longer decodes (schema drift
			// without a SimVersion bump) degrades to a miss.
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload, m, err := cfg.Run(ctx, p)
	if err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		if err := cfg.Cache.Put(key, payload); err != nil {
			return nil, err
		}
	}
	return &Outcome{Point: p, Payload: payload, Metrics: m}, nil
}

// Aggregate groups outcomes by cell (Point.Cell, i.e. seed stripped) in
// first-seen order and summarizes each group's metrics across seeds.
func Aggregate(points []Outcome) []Cell {
	cellOf := map[Point]int{}
	var members [][]int // per cell, the indices of its outcomes
	for i, o := range points {
		c := o.Point.Cell()
		k, seen := cellOf[c]
		if !seen {
			k = len(members)
			cellOf[c] = k
			members = append(members, nil)
		}
		members[k] = append(members[k], i)
	}
	cells := make([]Cell, 0, len(members))
	for _, m := range members {
		n := len(m)
		cell := Cell{Point: points[m[0]].Point.Cell(), Seeds: n}
		xs := make([]float64, 3*n) // the AFCT, p99 and utilization columns
		for j, i := range m {
			mt := &points[i].Metrics
			xs[j], xs[n+j], xs[2*n+j] = mt.AFCTUs, mt.P99Us, mt.Utilization
			cell.Completed += mt.Completed
			cell.Total += mt.Total
			cell.Drops += mt.Drops
			cell.Trims += mt.Trims
			cell.DeadlineTotal += mt.DeadlineTotal
			cell.DeadlineMissed += mt.DeadlineMissed
		}
		cell.AFCTUs = stats.Describe(xs[:n])
		cell.P99Us = stats.Describe(xs[n : 2*n])
		cell.Utilization = stats.Describe(xs[2*n:])
		cells = append(cells, cell)
	}
	return cells
}
