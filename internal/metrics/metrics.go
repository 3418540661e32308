// Package metrics is the simulator's unified telemetry layer: a
// Registry of named counters, gauges, and fixed-interval time series
// that any component can register against, sampled by one ticker on the
// simulation clock and dumped as JSON or CSV.
//
// # Determinism contract
//
// All output is a pure function of (simulation config, seed):
//
//   - Sampling is driven by one ticker scheduled on the simulation
//     engine (sim.Engine.Every, calling Registry.Sample) — never by
//     wall-clock time — so sample instants are virtual times, identical
//     across runs and machines.
//   - Dumps iterate entries in sorted-name order and format numbers
//     with Go's canonical shortest representation, so two runs with
//     the same config and seed produce byte-identical files.
//   - Sampling callbacks must not change simulation behaviour. They
//     may read any component state and maintain their own bookkeeping
//     (e.g. the windowed-utilization reset, the RatioOf cursors), but
//     must never schedule events or mutate protocol state.
//
// # Cost contract
//
// The hot path is allocation-free: a Counter is one int64 behind
// nil-safe methods (no locks, no map lookups — the engine is
// single-threaded by construction), and CounterFunc bindings cost
// nothing until a sample or dump reads them. Series samples land
// in a fixed-capacity ring buffer allocated once at Begin; when it
// wraps, the oldest samples are discarded and counted in Dropped.
//
// A nil *Registry is a valid no-op sink: every registration method on
// it returns a nil handle whose methods do nothing, so components wire
// their instrumentation unconditionally and pay (nearly) nothing when
// telemetry is disabled.
package metrics

import (
	"fmt"

	"amrt/internal/sim"
)

// DefaultSeriesCap is the per-series ring capacity: at the default
// 100 µs sampling interval it retains ~0.8 s of history per series.
const DefaultSeriesCap = 8192

// Registry holds a simulation's telemetry instruments. Create one per
// simulation with NewRegistry, register instruments before Begin, and
// dump after the run. Registries are not safe for concurrent use — like
// the engine they observe, they belong to one simulation goroutine.
type Registry struct {
	names      map[string]bool
	counters   []*Counter
	counterFns []namedIntFn
	gauges     []*Gauge
	series     []*TimeSeries

	interval sim.Time
	startAt  sim.Time
	started  bool
}

type namedIntFn struct {
	name string
	fn   func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// claim reserves a unique instrument name, panicking on duplicates
// (programmer error: two components chose the same name).
func (r *Registry) claim(name string) {
	if name == "" {
		panic("metrics: empty instrument name")
	}
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", name))
	}
	r.names[name] = true
}

// Counter registers and returns an owned cumulative counter. On a nil
// registry it returns nil, which is a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.claim(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// CounterFunc registers a cumulative counter backed by fn, read at
// sample and dump time — the cheapest way to expose a counter a
// component already maintains. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.claim(name)
	r.counterFns = append(r.counterFns, namedIntFn{name, fn})
}

// Gauge registers and returns an owned instantaneous value. On a nil
// registry it returns nil, which is a valid no-op gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.claim(name)
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// Counter is a cumulative event count. The nil Counter is valid and
// does nothing, so instrumented code never checks for enablement.
type Counter struct {
	name string
	v    int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (n may be negative to correct an overcount, though
// counters are conventionally monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name ("" on the nil counter).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an instantaneous value. The nil Gauge is valid and does
// nothing.
type Gauge struct {
	name string
	v    float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last set value (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Name returns the registered name ("" on the nil gauge).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}
