package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is what one timed pass cost the host.
type sample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// measure times fn as one pass: a collection first, so a pass starts
// from a swept heap and the previous pass's garbage is not billed to
// it, then wall clock, process CPU and the allocation counters around
// the call.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	return sample{
		WallS:      wall.Seconds(),
		CPUS:       cpu1 - cpu0,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
	}, err
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and a non-nil pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set in MB (10^6
// bytes); Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// gcCounters reads the runtime's cumulative GC CPU seconds, total CPU
// seconds and completed GC cycles. The CPU classes are refreshed at
// the end of each GC cycle, so callers force a collection before
// reading.
func gcCounters() (gcCPU, totalCPU float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// summary describes a set of measurements of one quantity: the median
// with the spread beside it, and the sample count.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// Tail is the highest percentile that still has at least ten
	// samples beyond it, reported once there are 100 samples.
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// summarize computes the summary of vs. Quartiles follow Python's
// statistics.quantiles(n=4) (the exclusive method), which is what the
// acceptance check of the benchmark uses.
func summarize(vs []float64) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	out := summary{N: n, Min: s[0], Max: s[n-1]}
	if n == 1 {
		out.Q1, out.Median, out.Q3 = s[0], s[0], s[0]
		return out
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n >= 100 {
		out.Tail = s[n-11]
		out.TailPct = 100 * float64(n-10) / float64(n)
	}
	return out
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func median(vs []float64) float64 { return summarize(vs).Median }

// medianOf runs fn n times and returns the median of what it reports.
func medianOf(n int, fn func() float64) float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = fn()
	}
	return median(vs)
}
