package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"amrt/internal/pool"
)

// Metrics is the numeric slice of one run's result that the caller
// summarizes: completion times in microseconds, utilization, and the
// bookkeeping counters. The full result stays opaque payload bytes.
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

// Outcome is one completed point: its payload (opaque bytes), its
// metrics, and whether it was served from the cache.
type Outcome struct {
	Point     Point
	Payload   []byte
	Metrics   Metrics
	FromCache bool
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
	// Points are the campaign's points, executed in order across the
	// worker pool.
	Points []Point
	// Workers caps parallelism below the GOMAXPROCS ceiling; <= 0
	// means the full GOMAXPROCS pool (pool.ParallelCtx).
	Workers int
	// Cache, when non-nil, memoizes each completed point under its key.
	Cache *Cache
	// Keys holds each point's cache address, index for index with
	// Points (ignored without Cache).
	Keys []string
	// Run computes one point: canonical payload bytes plus metrics.
	// It must honor ctx for prompt cancellation.
	Run func(ctx context.Context, p Point) ([]byte, Metrics, error)
	// Decode checks a cached payload and returns its Metrics (required
	// when Cache is set). It runs once per cache hit; an error makes
	// the hit a miss.
	Decode func(payload []byte) (Metrics, error)
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

// Result is what a campaign returns: per-point outcomes in the order of
// Config.Points (cancelled or failed points omitted), the quarantine
// list (failed points in the same order; always empty without
// Config.Quarantine), and the cache ledger.
type Result struct {
	Points []Outcome
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
// runner propagates as *pool.WorkerPanic, matching the figure
// harness's contract.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Run == nil {
		return nil, errors.New("campaign: Config.Run is required")
	}
	if cfg.Cache != nil && (len(cfg.Keys) != len(cfg.Points) || cfg.Decode == nil) {
		return nil, errors.New("campaign: Cache requires Decode and one key per point")
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
	// completed[i] marks outcomes[i] as a completed point; any other
	// slot holds the zero Outcome.
	completed := make([]bool, n)
	outcomes, _, _ := pool.ParallelCtx(runCtx, n, cfg.Workers, func(i int) Outcome {
		o, err := runPoint(runCtx, cfg, i)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if runCtx.Err() != nil {
				// Campaign cancelled: the point was aborted, not
				// poisoned — cancellation surfaces as ctx.Err() below.
				return Outcome{}
			}
			if !cfg.Quarantine {
				// The first genuine point failure stops the rest of
				// the sweep.
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return Outcome{}
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
			return Outcome{}
		}
		completed[i] = true
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
	// The completed outcomes close up in place, in point order.
	res.Points = outcomes[:0]
	for i, o := range outcomes {
		if completed[i] {
			res.Points = append(res.Points, o)
		}
	}
	// Quarantined failures assemble in point order regardless of which
	// worker recorded them first, so reports stay deterministic.
	for _, f := range failures {
		if f != nil {
			res.Failed = append(res.Failed, *f)
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runPoint resolves point i under the cell timeout: cache probe, then
// compute + store.
func runPoint(ctx context.Context, cfg Config, i int) (Outcome, error) {
	if cfg.CellTimeout <= 0 {
		return resolvePoint(ctx, cfg, i)
	}
	cellCtx, cancel := context.WithTimeout(ctx, cfg.CellTimeout)
	defer cancel()
	o, err := resolvePoint(cellCtx, cfg, i)
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("campaign: point exceeded cell timeout %v: %w", cfg.CellTimeout, err)
	}
	return o, err
}

// resolvePoint is runPoint without the timeout.
func resolvePoint(ctx context.Context, cfg Config, i int) (Outcome, error) {
	o := Outcome{Point: cfg.Points[i]}
	if cfg.Cache != nil {
		if payload, ok := cfg.Cache.Get(cfg.Keys[i]); ok {
			m, err := cfg.Decode(payload)
			if err == nil {
				o.Payload, o.Metrics, o.FromCache = payload, m, true
				return o, nil
			}
			// An entry whose payload no longer decodes (schema drift
			// without a SimVersion bump) degrades to a miss.
		}
	}
	if err := ctx.Err(); err != nil {
		return o, err
	}
	var err error
	if o.Payload, o.Metrics, err = cfg.Run(ctx, o.Point); err != nil {
		return o, err
	}
	if cfg.Cache != nil {
		if err := cfg.Cache.Put(cfg.Keys[i], o.Payload); err != nil {
			return o, err
		}
	}
	return o, nil
}
