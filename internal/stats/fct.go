// Package stats provides the measurement machinery the evaluation uses:
// flow-completion-time collection with percentiles, slowdown, link
// utilization sampling into time series, and per-flow throughput
// tracking.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"amrt/internal/sim"
)

// FCTSample records one completed flow.
type FCTSample struct {
	Size  int64 // flow size in bytes
	Start sim.Time
	End   sim.Time
}

// FCT returns the flow completion time.
func (s FCTSample) FCT() sim.Time { return s.End - s.Start }

// FCTCollector accumulates completed flows and answers the aggregate
// questions the paper's figures ask: average FCT, tail FCT, slowdown,
// and breakdowns by flow size class.
type FCTCollector struct {
	samples []FCTSample
	sorted  bool
}

// NewFCTCollector returns an empty collector.
func NewFCTCollector() *FCTCollector { return &FCTCollector{} }

// Add records a completed flow.
func (c *FCTCollector) Add(size int64, start, end sim.Time) {
	if end < start {
		panic(fmt.Sprintf("stats: flow ends (%v) before it starts (%v)", end, start))
	}
	c.samples = append(c.samples, FCTSample{Size: size, Start: start, End: end})
	c.sorted = false
}

// Count returns the number of completed flows.
func (c *FCTCollector) Count() int { return len(c.samples) }

// Merge concatenates the given collectors' samples into one collector in
// canonical (End, Start, Size) order. Per-shard collectors accumulate in
// their own completion order; the canonical sort makes every aggregate —
// including the floating-point fold in Mean, which is sensitive to
// summation order — a pure function of the sample set, so a merged
// multi-shard run reports byte-identical statistics to the single-shard
// reference. (Samples identical in all three fields are
// interchangeable, so the sort's tie order cannot affect any aggregate.)
// A sole collector is sorted in place and returned.
func Merge(parts ...*FCTCollector) *FCTCollector {
	var out *FCTCollector
	if len(parts) == 1 && parts[0] != nil {
		out = parts[0]
	} else {
		out = NewFCTCollector()
		for _, p := range parts {
			if p != nil {
				out.samples = append(out.samples, p.samples...)
			}
		}
	}
	slices.SortFunc(out.samples, func(a, b FCTSample) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Start, b.Start), cmp.Compare(a.Size, b.Size))
	})
	out.sorted = false
	return out
}

// Grow makes room for n more samples, in one allocation.
func (c *FCTCollector) Grow(n int) {
	if n > cap(c.samples)-len(c.samples) {
		c.samples = append(make([]FCTSample, 0, len(c.samples)+n), c.samples...)
	}
}

// Samples returns the raw samples (not a copy; do not mutate).
func (c *FCTCollector) Samples() []FCTSample { return c.samples }

// Mean returns the average FCT, or 0 with no samples.
func (c *FCTCollector) Mean() sim.Time {
	if len(c.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range c.samples {
		sum += float64(s.FCT())
	}
	return sim.Time(sum / float64(len(c.samples)))
}

func (c *FCTCollector) ensureSorted() {
	if c.sorted {
		return
	}
	slices.SortFunc(c.samples, func(a, b FCTSample) int { return cmp.Compare(a.FCT(), b.FCT()) })
	c.sorted = true
}

// Percentile returns the p-th percentile FCT (p in [0,100]) using
// nearest-rank on the sorted samples.
func (c *FCTCollector) Percentile(p float64) sim.Time {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return sim.Time(percentileOfSorted(c.samples, p))
}

func percentileOfSorted(sorted []FCTSample, p float64) float64 {
	if p <= 0 {
		return float64(sorted[0].FCT())
	}
	if p >= 100 {
		return float64(sorted[len(sorted)-1].FCT())
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank].FCT())
}

// P99 is shorthand for the 99th percentile.
func (c *FCTCollector) P99() sim.Time { return c.Percentile(99) }

// Filter returns a collector holding only samples that satisfy keep.
func (c *FCTCollector) Filter(keep func(FCTSample) bool) *FCTCollector {
	out := NewFCTCollector()
	for _, s := range c.samples {
		if keep(s) {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

// BySize partitions samples at the boundary bytes: (<boundary, >=boundary).
func (c *FCTCollector) BySize(boundary int64) (small, large *FCTCollector) {
	small = c.Filter(func(s FCTSample) bool { return s.Size < boundary })
	large = c.Filter(func(s FCTSample) bool { return s.Size >= boundary })
	return small, large
}

// JainIndex computes Jain's fairness index over a set of rates or
// throughputs: (Σx)² / (n·Σx²), 1.0 = perfectly fair, 1/n = one flow
// takes everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
