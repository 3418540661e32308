package stats

import (
	"fmt"
	"io"
	"sort"

	"amrt/internal/sim"
)

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series (e.g. utilization or per-flow
// throughput over time).
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample; timestamps must be nondecreasing.
func (s *Series) Append(t sim.Time, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("stats: series %q time went backwards: %v after %v", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean returns the arithmetic mean of the sample values.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Max returns the largest sample value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// MeanBetween averages samples with from <= T < to.
func (s *Series) MeanBetween(from, to sim.Time) float64 {
	var sum float64
	n := 0
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteCSV emits "t_us,value" rows.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_us,%s\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%.6g\n", p.T.Microseconds(), p.V); err != nil {
			return err
		}
	}
	return nil
}

// SumSeries adds aligned series point-wise: the result has a point at
// every timestamp appearing in any input, valued as the sum of inputs at
// that timestamp. Inputs whose windows are aligned (e.g. FlowThroughput
// trackers sharing a window size) sum into aggregate goodput.
func SumSeries(name string, series ...*Series) *Series {
	sums := map[sim.Time]float64{}
	var times []sim.Time
	for _, s := range series {
		if s == nil {
			continue
		}
		for _, p := range s.Points {
			if _, seen := sums[p.T]; !seen {
				times = append(times, p.T)
			}
			sums[p.T] += p.V
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := &Series{Name: name}
	for _, t := range times {
		out.Append(t, sums[t])
	}
	return out
}

// FlowThroughput tracks per-flow received bytes and renders a
// windowed-throughput series normalized to a reference rate, which is
// how the paper's testbed figures present per-flow throughput.
type FlowThroughput struct {
	Name    string
	window  sim.Time
	ref     sim.Rate
	bytes   int64
	lastT   sim.Time
	series  Series
	started bool
}

// NewFlowThroughput tracks one flow; samples are bytes-per-window
// normalized by ref (1.0 = full link).
func NewFlowThroughput(name string, window sim.Time, ref sim.Rate) *FlowThroughput {
	return &FlowThroughput{Name: name, window: window, ref: ref, series: Series{Name: name}}
}

// OnBytes records delivered payload bytes at virtual time now.
func (f *FlowThroughput) OnBytes(now sim.Time, n int) {
	if !f.started {
		f.lastT = now - now%f.window
		f.started = true
	}
	for now >= f.lastT+f.window {
		f.flush()
	}
	f.bytes += int64(n)
}

func (f *FlowThroughput) flush() {
	end := f.lastT + f.window
	norm := float64(f.bytes) / float64(f.ref.BytesIn(f.window))
	f.series.Append(end, norm)
	f.bytes = 0
	f.lastT = end
}

// Finish flushes the partially filled window and returns the series.
func (f *FlowThroughput) Finish() *Series {
	if f.started && f.bytes > 0 {
		f.flush()
	}
	return &f.series
}
