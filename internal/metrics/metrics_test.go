package metrics

import (
	"bytes"
	"strings"
	"testing"

	"amrt/internal/sim"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 || c.Name() != "" {
		t.Fatalf("nil counter not inert: %d %q", c.Value(), c.Name())
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge not inert: %v", g.Value())
	}
	s := r.Series("z", func(sim.Time) float64 { return 1 })
	if s.Len() != 0 || s.Values() != nil {
		t.Fatalf("nil series not inert")
	}
	r.CounterFunc("cf", func() int64 { return 1 })
	r.Begin(0, sim.Microsecond)
	r.Sample(0)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), SchemaVersion) {
		t.Fatalf("nil dump missing schema tag: %s", buf.String())
	}
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("nil WriteCSV: %v", err)
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	var backing int64 = 7
	r.CounterFunc("ext", func() int64 { return backing })
	g := r.Gauge("depth")
	g.Set(2.5)
	d := r.snapshot()
	if len(d.Counters) != 2 || d.Counters[0].Name != "ext" || d.Counters[0].Value != 7 ||
		d.Counters[1].Name != "pkts" || d.Counters[1].Value != 10 {
		t.Fatalf("counters dump wrong: %+v", d.Counters)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Value != 2.5 {
		t.Fatalf("gauges dump wrong: %+v", d.Gauges)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Series("x", func(sim.Time) float64 { return 0 })
}

// startSampler drives r the way the experiment runner does: Begin at the
// engine's current time, then one Sample per late-band Every tick up to
// until.
func startSampler(eng *sim.Engine, r *Registry, interval, until sim.Time) {
	r.Begin(eng.Now(), interval)
	eng.Every(eng.Now(), interval, until, sim.SubObserver|1, func() bool {
		r.Sample(eng.Now())
		return true
	})
}

func TestSamplerTicksOnSimClock(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	var v float64
	s := r.Series("v", func(now sim.Time) float64 { return v })
	// Simulation activity: bump v at 50µs intervals for 1ms.
	for i := 1; i <= 20; i++ {
		i := i
		eng.Schedule(sim.Time(i)*50*sim.Microsecond, func() { v = float64(i) })
	}
	startSampler(eng, r, 100*sim.Microsecond, sim.Millisecond)
	eng.RunAll()

	// Ticks at 0, 100µs, ..., 1ms inclusive.
	if s.Len() != 11 {
		t.Fatalf("%d samples, want 11", s.Len())
	}
	vals := s.Values()
	if vals[0] != 0 {
		t.Fatalf("first sample %v, want 0 (tick at t=0)", vals[0])
	}
	// Sample i is taken at t=i*100µs, after the same-time bump: the
	// ticks run in the late band.
	if vals[1] != 2 || vals[5] != 10 || vals[10] != 20 {
		t.Fatalf("samples misaligned: %v", vals)
	}
	if s.Interval() != 100*sim.Microsecond {
		t.Fatalf("interval %v", s.Interval())
	}
}

// TestSamplerTerminatesRunAll: an open-ended sampler whose tick stops
// once nothing else is pending lets Engine.RunAll return, with a last
// sample at the last event's instant.
func TestSamplerTerminatesRunAll(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	s := r.Series("x", func(sim.Time) float64 { return 1 })
	eng.Schedule(sim.Millisecond, func() {})
	r.Begin(0, 100*sim.Microsecond)
	eng.Every(0, 100*sim.Microsecond, sim.Forever, sim.SubObserver|1, func() bool {
		r.Sample(eng.Now())
		return eng.Pending() > 0
	})
	end := eng.RunAll() // must not spin forever
	if end != sim.Millisecond || s.Len() != 11 {
		t.Fatalf("ended at %v with %d samples, want 1ms and 11", end, s.Len())
	}
}

func TestRingEviction(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	var n float64
	s := r.Series("n", func(sim.Time) float64 { n++; return n })
	// DefaultSeriesCap+6 ticks: the ring wraps six times.
	startSampler(eng, r, sim.Microsecond, (DefaultSeriesCap+5)*sim.Microsecond)
	eng.RunAll()

	if s.Len() != DefaultSeriesCap || s.Dropped() != 6 {
		t.Fatalf("retained %d, dropped %d, want %d and 6", s.Len(), s.Dropped(), DefaultSeriesCap)
	}
	vals := s.Values()
	if vals[0] != 7 {
		t.Fatalf("oldest retained sample %v, want 7", vals[0])
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1]+1 {
			t.Fatalf("ring order broken at %d: %v after %v", i, vals[i], vals[i-1])
		}
	}
	if want := 6 * sim.Microsecond; s.FirstAt() != want {
		t.Fatalf("FirstAt %v, want %v", s.FirstAt(), want)
	}
}

func TestRatioOf(t *testing.T) {
	var a, b int64
	rt := RatioOf(func() int64 { return a }, func() int64 { return b })
	a, b = 10, 20
	if got := rt(0); got != 0.5 {
		t.Fatalf("ratio %v, want 0.5", got)
	}
	a += 5 // b unchanged: denominator idle
	if got := rt(0); got != 0 {
		t.Fatalf("idle-denominator ratio %v, want 0", got)
	}
}

// run builds a small deterministic simulation with telemetry and
// returns its JSON and CSV dumps.
func run(t *testing.T) (string, string) {
	t.Helper()
	eng := sim.NewEngine()
	r := NewRegistry()
	c := r.Counter("events")
	var depth int64
	g := r.Gauge("depth")
	r.Series("depth_series", func(sim.Time) float64 { return float64(depth) })
	var lastEvents int64
	r.Series("event_rate", func(sim.Time) float64 {
		d := c.Value() - lastEvents
		lastEvents += d
		return float64(d)
	})
	rng := sim.NewRNG(42)
	for i := 0; i < 200; i++ {
		at := sim.Time(rng.Int63n(int64(sim.Millisecond)))
		eng.Schedule(at, func() { c.Inc(); depth = int64(eng.Pending()); g.Set(float64(depth)) })
	}
	startSampler(eng, r, 37*sim.Microsecond, sim.Millisecond)
	eng.RunAll()
	var j, cs bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&cs); err != nil {
		t.Fatal(err)
	}
	return j.String(), cs.String()
}

func TestDumpByteIdenticalAcrossRuns(t *testing.T) {
	j1, c1 := run(t)
	j2, c2 := run(t)
	if j1 != j2 {
		t.Fatalf("JSON dumps differ:\n%s\n---\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Fatalf("CSV dumps differ")
	}
	if !strings.Contains(j1, `"schema": "amrt-metrics/v1"`) {
		t.Fatalf("schema tag missing:\n%s", j1[:200])
	}
	lines := strings.Split(strings.TrimSpace(c1), "\n")
	if lines[0] != "t_us,depth_series,event_rate" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("CSV too short: %d lines", len(lines))
	}
}
