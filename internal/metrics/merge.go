package metrics

import (
	"fmt"

	"amrt/internal/sim"
)

// Merged combines per-shard registries into one equivalent to what a
// single-shard run would have produced, for dumping. Instruments are
// grouped by name across the parts:
//
//   - counters and counter funcs sum (shards register the same names
//     for partitioned totals like net.delivered; the sum is the global
//     value);
//   - gauges sum likewise, at merge time;
//   - a series registered in exactly one part is adopted as-is (per-port
//     series — a port lives on one shard);
//   - a series registered in several parts is summed pointwise, which
//     requires the parts to share the tick timeline (same interval,
//     first-sample time, and length — guaranteed when every part began
//     with the same start and interval and was sampled at the same
//     instants, as the runner's per-shard tickers are). Mismatched
//     timelines panic.
//
// Dumps iterate in sorted-name order, so the merged output does not
// depend on the order shards registered or are passed in. The merged
// registry is read-only in spirit: registering new instruments on it or
// sampling it is a programmer error.
func Merged(parts ...*Registry) *Registry {
	m := NewRegistry()
	m.started = true
	for _, p := range parts {
		if p != nil {
			m.interval = p.interval
			m.startAt = p.startAt
			break
		}
	}

	counterIdx := map[string]int{}
	gaugeIdx := map[string]*Gauge{}
	type sgroup struct {
		name  string
		parts []*TimeSeries
	}
	seriesIdx := map[string]int{}
	var sgroups []*sgroup

	addCounter := func(name string, fn func() int64) {
		if i, ok := counterIdx[name]; ok {
			prev := m.counterFns[i].fn
			m.counterFns[i].fn = func() int64 { return prev() + fn() }
			return
		}
		counterIdx[name] = len(m.counterFns)
		m.names[name] = true
		m.counterFns = append(m.counterFns, namedIntFn{name, fn})
	}

	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, c := range p.counters {
			c := c
			addCounter(c.name, c.Value)
		}
		for _, f := range p.counterFns {
			addCounter(f.name, f.fn)
		}
		for _, g := range p.gauges {
			if sum, ok := gaugeIdx[g.name]; ok {
				sum.v += g.v
				continue
			}
			sum := &Gauge{name: g.name, v: g.v}
			gaugeIdx[g.name] = sum
			m.names[g.name] = true
			m.gauges = append(m.gauges, sum)
		}
		for _, s := range p.series {
			i, ok := seriesIdx[s.name]
			if !ok {
				i = len(sgroups)
				seriesIdx[s.name] = i
				sgroups = append(sgroups, &sgroup{name: s.name})
			}
			sgroups[i].parts = append(sgroups[i].parts, s)
		}
	}

	for _, g := range sgroups {
		m.names[g.name] = true
		if len(g.parts) == 1 {
			m.series = append(m.series, g.parts[0])
			continue
		}
		m.series = append(m.series, sumSeries(g.name, g.parts))
	}
	return m
}

// sumSeries materializes the pointwise sum of same-named per-shard
// series sharing one tick timeline.
func sumSeries(name string, parts []*TimeSeries) *TimeSeries {
	ref := parts[0]
	for _, p := range parts[1:] {
		if p.interval != ref.interval || p.firstAt != ref.firstAt || p.count != ref.count || p.dropped != ref.dropped {
			panic(fmt.Sprintf(
				"metrics: cannot merge series %q: tick timelines differ (interval %v/%v first %v/%v count %d/%d dropped %d/%d)",
				name, ref.interval, p.interval, ref.firstAt, p.firstAt, ref.count, p.count, ref.dropped, p.dropped))
		}
	}
	out := &TimeSeries{
		name:     name,
		sample:   func(sim.Time) float64 { return 0 },
		interval: ref.interval,
		firstAt:  ref.firstAt,
		buf:      make([]float64, ref.count),
		count:    ref.count,
		dropped:  ref.dropped,
	}
	for i := 0; i < ref.count; i++ {
		var v float64
		for _, p := range parts {
			v += p.At(i)
		}
		out.buf[i] = v
	}
	return out
}
