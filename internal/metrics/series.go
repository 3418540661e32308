package metrics

import (
	"fmt"

	"amrt/internal/sim"
)

// SampleFunc produces one time-series sample at virtual time now. It
// must not schedule events or mutate simulation state (see the package
// determinism contract); it may maintain private bookkeeping such as a
// delta cursor or a measurement-window reset.
type SampleFunc func(now sim.Time) float64

// TimeSeries is a fixed-interval series of samples in a ring buffer.
// Registry.Sample calls the sample function once per tick; when the ring
// is full the oldest sample is evicted and counted in Dropped. The nil
// TimeSeries is valid and retains nothing.
type TimeSeries struct {
	name   string
	sample SampleFunc

	interval sim.Time
	firstAt  sim.Time // virtual time of buf's oldest retained sample

	buf     []float64
	head    int // index of the oldest sample
	count   int
	dropped int64
}

// Series registers a sampled time series. Register before Begin so
// every series shares the full tick timeline (late registration is
// allowed but the series simply starts at the next tick). On a nil
// registry it returns nil, a valid no-op series.
func (r *Registry) Series(name string, sample SampleFunc) *TimeSeries {
	if r == nil {
		return nil
	}
	if sample == nil {
		panic(fmt.Sprintf("metrics: series %q has nil sample func", name))
	}
	r.claim(name)
	s := &TimeSeries{name: name, sample: sample}
	if r.started {
		s.alloc(r)
	}
	r.series = append(r.series, s)
	return s
}

func (s *TimeSeries) alloc(r *Registry) {
	s.buf = make([]float64, DefaultSeriesCap)
	s.interval = r.interval
}

func (s *TimeSeries) push(now sim.Time, v float64) {
	if s.count == 0 {
		s.firstAt = now
	}
	if s.count < len(s.buf) {
		s.buf[(s.head+s.count)%len(s.buf)] = v
		s.count++
		return
	}
	s.buf[s.head] = v
	s.head = (s.head + 1) % len(s.buf)
	s.dropped++
	s.firstAt += s.interval
}

// Name returns the registered name ("" on the nil series).
func (s *TimeSeries) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Len returns the number of retained samples.
func (s *TimeSeries) Len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Dropped returns how many old samples the ring evicted.
func (s *TimeSeries) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// Interval returns the sampling period (0 before Begin).
func (s *TimeSeries) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// FirstAt returns the virtual time of the oldest retained sample.
func (s *TimeSeries) FirstAt() sim.Time {
	if s == nil {
		return 0
	}
	return s.firstAt
}

// Values returns the retained samples oldest-first, as a copy.
func (s *TimeSeries) Values() []float64 {
	if s == nil || s.count == 0 {
		return nil
	}
	out := make([]float64, s.count)
	for i := 0; i < s.count; i++ {
		out[i] = s.buf[(s.head+i)%len(s.buf)]
	}
	return out
}

// At returns sample i (oldest-first) without copying.
func (s *TimeSeries) At(i int) float64 {
	if s == nil || i < 0 || i >= s.count {
		panic(fmt.Sprintf("metrics: series sample index %d out of range [0,%d)", i, s.Len()))
	}
	return s.buf[(s.head+i)%len(s.buf)]
}

// Begin fixes the registry's sampling timeline — samples at start,
// start+interval, and so on — and allocates every registered series'
// ring. The registry does not tick itself: its owner calls Sample at
// those instants (the experiment runner does, through sim.Engine.Every).
// Begin panics if called twice or with a non-positive interval; it is a
// no-op on a nil registry.
func (r *Registry) Begin(start, interval sim.Time) {
	if r == nil {
		return
	}
	if interval <= 0 {
		panic(fmt.Sprintf("metrics: non-positive sampling interval %v", interval))
	}
	if r.started {
		panic("metrics: Begin called twice")
	}
	r.started = true
	r.interval = interval
	r.startAt = start
	for _, s := range r.series {
		s.alloc(r)
	}
}

// Sample records one sample of every registered series, in registration
// order, taken at virtual time now. Call it only after Begin, which
// allocates the rings; it is a no-op on a nil registry.
func (r *Registry) Sample(now sim.Time) {
	if r == nil {
		return
	}
	for _, s := range r.series {
		s.push(now, s.sample(now))
	}
}

// Interval returns the sampling period chosen at Begin (0 before).
func (r *Registry) Interval() sim.Time {
	if r == nil {
		return 0
	}
	return r.interval
}

// StartAt returns the virtual time of the first sample.
func (r *Registry) StartAt() sim.Time {
	if r == nil {
		return 0
	}
	return r.startAt
}

// DeltaOf adapts a cumulative int64 source (a counter, a protocol
// field) into a per-interval delta sampler: each sample is the source's
// growth since the previous tick.
func DeltaOf(fn func() int64) SampleFunc {
	var last int64
	return func(sim.Time) float64 {
		v := fn()
		d := v - last
		last = v
		return float64(d)
	}
}

// RatioOf samples the ratio of two cumulative sources' per-interval
// deltas — e.g. packets CE-marked over packets observed gives the
// per-interval mark rate. Intervals where the denominator did not move
// sample as 0.
func RatioOf(num, den func() int64) SampleFunc {
	var lastNum, lastDen int64
	return func(sim.Time) float64 {
		n, d := num(), den()
		dn, dd := n-lastNum, d-lastDen
		lastNum, lastDen = n, d
		if dd <= 0 {
			return 0
		}
		return float64(dn) / float64(dd)
	}
}
