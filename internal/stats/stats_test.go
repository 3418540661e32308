package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"amrt/internal/sim"
)

func TestFCTCollectorBasics(t *testing.T) {
	c := NewFCTCollector()
	if c.Mean() != 0 || c.P99() != 0 || c.Count() != 0 {
		t.Error("empty collector should report zeros")
	}
	c.Add(1000, 0, 100)
	c.Add(1000, 50, 250) // fct 200
	c.Add(1000, 0, 300)
	if c.Count() != 3 {
		t.Fatalf("Count = %d", c.Count())
	}
	if got := c.Mean(); got != 200 {
		t.Errorf("Mean = %v, want 200", got)
	}
	if got := c.Percentile(50); got != 200 {
		t.Errorf("P50 = %v, want 200", got)
	}
	if got := c.Percentile(100); got != 300 {
		t.Errorf("P100 = %v, want 300", got)
	}
	if got := c.Percentile(0); got != 100 {
		t.Errorf("P0 = %v, want 100", got)
	}
}

func TestFCTPercentileNearestRank(t *testing.T) {
	c := NewFCTCollector()
	for i := 1; i <= 100; i++ {
		c.Add(1, 0, sim.Time(i))
	}
	if got := c.P99(); got != 99 {
		t.Errorf("P99 of 1..100 = %v, want 99", got)
	}
	if got := c.Percentile(50); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
	if got := c.Percentile(1); got != 1 {
		t.Errorf("P1 = %v, want 1", got)
	}
}

func TestFCTAddAfterPercentileKeepsSorted(t *testing.T) {
	c := NewFCTCollector()
	c.Add(1, 0, 300)
	c.Add(1, 0, 100)
	_ = c.P99()
	c.Add(1, 0, 200)
	if got := c.Percentile(100); got != 300 {
		t.Errorf("max after re-add = %v", got)
	}
	if got := c.Percentile(0); got != 100 {
		t.Errorf("min after re-add = %v", got)
	}
}

func TestFCTNegativePanics(t *testing.T) {
	c := NewFCTCollector()
	defer func() {
		if recover() == nil {
			t.Error("end<start did not panic")
		}
	}()
	c.Add(1, 100, 50)
}

func TestFCTMeanSlowdown(t *testing.T) {
	c := NewFCTCollector()
	// 1250-byte flow at 10Gbps = 1µs ideal tx; rtt 1µs → ideal 2µs.
	c.Add(1250, 0, 4*sim.Microsecond) // slowdown 2
	got := c.MeanSlowdown(10*sim.Gbps, sim.Microsecond)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("MeanSlowdown = %v, want 2", got)
	}
}

func TestFCTBySize(t *testing.T) {
	c := NewFCTCollector()
	c.Add(100, 0, 10)
	c.Add(20000, 0, 20)
	c.Add(5000, 0, 30)
	small, large := c.BySize(10000)
	if small.Count() != 2 || large.Count() != 1 {
		t.Errorf("BySize split %d/%d, want 2/1", small.Count(), large.Count())
	}
}

// Property: Mean is between min and max, percentiles are monotone in p.
func TestFCTPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		c := NewFCTCollector()
		for _, v := range raw {
			c.Add(1, 0, sim.Time(v))
		}
		prev := sim.Time(-1)
		for p := 0.0; p <= 100; p += 7 {
			cur := c.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return c.Mean() >= c.Percentile(0) && c.Mean() <= c.Percentile(100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "u"}
	s.Append(0, 0.5)
	s.Append(10, 1.0)
	s.Append(20, 0.75)
	if got := s.Mean(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Max(); got != 1.0 {
		t.Errorf("Max = %v", got)
	}
	if got := s.MeanBetween(5, 25); math.Abs(got-0.875) > 1e-9 {
		t.Errorf("MeanBetween = %v", got)
	}
	if got := s.MeanBetween(100, 200); got != 0 {
		t.Errorf("MeanBetween empty window = %v", got)
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	s := &Series{Name: "x"}
	s.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	s.Append(5, 1)
}

func TestSeriesWriteCSV(t *testing.T) {
	s := &Series{Name: "util"}
	s.Append(sim.Microsecond, 0.5)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.HasPrefix(got, "t_us,util\n") || !strings.Contains(got, "1.000,0.5") {
		t.Errorf("CSV = %q", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal rates: %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one-taker: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: %v", got)
	}
	// Scale invariance.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("not scale invariant: %v vs %v", a, b)
	}
}

func TestSumSeries(t *testing.T) {
	a := &Series{Name: "a"}
	a.Append(10, 0.5)
	a.Append(20, 0.25)
	b := &Series{Name: "b"}
	b.Append(10, 0.5)
	b.Append(30, 1.0)
	sum := SumSeries("total", a, b, nil)
	want := []Point{{10, 1.0}, {20, 0.25}, {30, 1.0}}
	if len(sum.Points) != len(want) {
		t.Fatalf("points = %v", sum.Points)
	}
	for i, w := range want {
		if sum.Points[i].T != w.T || math.Abs(sum.Points[i].V-w.V) > 1e-9 {
			t.Errorf("point %d = %+v, want %+v", i, sum.Points[i], w)
		}
	}
	if empty := SumSeries("none"); len(empty.Points) != 0 {
		t.Error("empty sum should have no points")
	}
}

func TestFlowThroughput(t *testing.T) {
	// 10µs windows at 10Gbps reference: 12500 bytes = 1.0.
	ft := NewFlowThroughput("f1", 10*sim.Microsecond, 10*sim.Gbps)
	ft.OnBytes(0, 12500)                  // window [0,10µs): full rate
	ft.OnBytes(15*sim.Microsecond, 6250)  // window [10,20µs): half rate
	ft.OnBytes(35*sim.Microsecond, 12500) // windows [20,30) empty, [30,40) full
	s := ft.Finish()
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4 (%v)", len(s.Points), s.Points)
	}
	want := []float64{1.0, 0.5, 0, 1.0}
	for i, w := range want {
		if math.Abs(s.Points[i].V-w) > 1e-9 {
			t.Errorf("window %d = %v, want %v", i, s.Points[i].V, w)
		}
	}
}

func TestFlowThroughputAlignsToWindow(t *testing.T) {
	ft := NewFlowThroughput("f", 10*sim.Microsecond, 10*sim.Gbps)
	ft.OnBytes(13*sim.Microsecond, 1250) // first event mid-window
	s := ft.Finish()
	if len(s.Points) != 1 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].T != 20*sim.Microsecond {
		t.Errorf("window end = %v, want 20µs", s.Points[0].T)
	}
}
