package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"amrt/internal/sim"
)

func TestFixedAndUniform(t *testing.T) {
	rng := sim.NewRNG(1)
	if Fixed(100).Sample(rng) != 100 || Fixed(100).Mean() != 100 {
		t.Error("Fixed distribution broken")
	}
	u := Uniform{Lo: 10, Hi: 20}
	for i := 0; i < 1000; i++ {
		v := u.Sample(rng)
		if v < 10 || v > 20 {
			t.Fatalf("uniform sample %d out of range", v)
		}
	}
	if u.Mean() != 15 {
		t.Errorf("uniform mean = %v", u.Mean())
	}
	if (Uniform{Lo: 5, Hi: 5}).Sample(rng) != 5 {
		t.Error("degenerate uniform should return Lo")
	}
}

func TestEmpiricalValidation(t *testing.T) {
	for _, bad := range [][]CDFPoint{
		{{100, 0}},                         // too few
		{{100, 0.1}, {200, 1}},             // doesn't start at 0
		{{100, 0}, {200, 0.9}},             // doesn't end at 1
		{{100, 0}, {100, 1}},               // sizes not increasing
		{{100, 0}, {200, 0.5}, {300, 0.2}}, // probs decreasing (then invalid end too)
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid CDF %v did not panic", bad)
				}
			}()
			NewEmpirical("bad", bad)
		}()
	}
}

func TestEmpiricalSampleBounds(t *testing.T) {
	for _, w := range All() {
		rng := sim.NewRNG(2)
		lo := w.points[0].Bytes
		hi := w.points[len(w.points)-1].Bytes
		for i := 0; i < 5000; i++ {
			v := w.Sample(rng)
			if v < lo || v > hi {
				t.Fatalf("%s sample %d outside [%d,%d]", w.Name(), v, lo, hi)
			}
		}
	}
}

func TestWorkloadMeansMatchPaper(t *testing.T) {
	// The paper: average flow sizes range from 64 KB to 7.41 MB, with
	// WebServer the smallest and DataMining the largest.
	means := map[string]float64{}
	for _, w := range All() {
		means[w.Name()] = w.Mean()
	}
	if math.Abs(means["WebServer"]-64_000)/64_000 > 0.05 {
		t.Errorf("WebServer mean = %.0f, want ~64KB", means["WebServer"])
	}
	if math.Abs(means["DataMining"]-7_410_000)/7_410_000 > 0.05 {
		t.Errorf("DataMining mean = %.0f, want ~7.41MB", means["DataMining"])
	}
	for name, m := range means {
		if m < 64_000*0.95 || m > 7_410_000*1.05 {
			t.Errorf("%s mean %.0f outside the paper's 64KB–7.41MB range", name, m)
		}
	}
}

func TestWorkloadEmpiricalMeanMatchesAnalytic(t *testing.T) {
	for _, w := range All() {
		rng := sim.NewRNG(3)
		const n = 300000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(w.Sample(rng))
		}
		got := sum / n
		want := w.Mean()
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f", w.Name(), got, want)
		}
	}
}

func TestWorkloadsMajoritySmallFlows(t *testing.T) {
	// "more than half of the flows are less than 10KB" — true for all
	// but the WebServer-style uniform body is exactly at 88%.
	for _, w := range All() {
		if f := w.FractionBelow(10_001); f < 0.5 {
			t.Errorf("%s: only %.0f%% of flows under 10KB", w.Name(), f*100)
		}
	}
}

func TestHeavyTailByteShare(t *testing.T) {
	// For the four heavy-tailed workloads, >=80% of bytes should come
	// from flows above 100KB (paper: >90% of bytes from large flows).
	for _, w := range All() {
		if w.Name() == "WebServer" {
			continue
		}
		rng := sim.NewRNG(4)
		var total, large float64
		for i := 0; i < 200000; i++ {
			v := float64(w.Sample(rng))
			total += v
			if v >= 100_000 {
				large += v
			}
		}
		if share := large / total; share < 0.8 {
			t.Errorf("%s: large flows carry only %.0f%% of bytes", w.Name(), share*100)
		}
	}
}

func TestFractionBelow(t *testing.T) {
	w := WebServer()
	if got := w.FractionBelow(50); got != 0 {
		t.Errorf("below min = %v", got)
	}
	if got := w.FractionBelow(2_000_000); got != 1 {
		t.Errorf("above max = %v", got)
	}
	if got := w.FractionBelow(10_000); math.Abs(got-0.882) > 0.001 {
		t.Errorf("FractionBelow(10K) = %v, want 0.882", got)
	}
}

func TestByNameAndAbbrev(t *testing.T) {
	if ByName("WebSearch") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
	if Abbrev("DataMining") != "DM" || Abbrev("x") != "x" {
		t.Error("Abbrev broken")
	}
	// The catalog's names are the ones the constructors give, in the
	// same order, and Known accepts exactly those.
	names := Names()
	for i, w := range All() {
		if got := ByName(w.Name()); got == nil || got.Name() != w.Name() {
			t.Errorf("ByName(%q) = %v", w.Name(), got)
		}
		if names[i] != w.Name() || !Known(w.Name()) {
			t.Errorf("Names()[%d] = %q, Known(%q) = %v", i, names[i], w.Name(), Known(w.Name()))
		}
	}
	if len(names) != len(All()) || Known("nope") || Known("websearch") || Known("") {
		t.Errorf("Names() = %v; Known accepts a name outside it", names)
	}
	if a := testing.AllocsPerRun(100, func() { Known("DataMining") }); a != 0 {
		t.Errorf("Known allocates %v times, want 0", a)
	}
}

func TestGeneratePoissonLoad(t *testing.T) {
	cfg := PoissonConfig{
		Hosts:    40,
		Load:     0.5,
		HostRate: 10 * sim.Gbps,
		Dist:     Fixed(100_000),
		Count:    20000,
		Seed:     7,
	}
	flows := GeneratePoisson(cfg)
	if len(flows) != cfg.Count {
		t.Fatalf("generated %d flows", len(flows))
	}
	// Offered load = total bytes / (duration × aggregate rate).
	duration := flows[len(flows)-1].Start.Seconds()
	var bytes float64
	for _, f := range flows {
		bytes += float64(f.Size)
	}
	offered := bytes * 8 / (duration * float64(cfg.HostRate) * float64(cfg.Hosts))
	if math.Abs(offered-0.5) > 0.05 {
		t.Errorf("offered load %.3f, want 0.5", offered)
	}
	// Arrivals strictly ordered, pairs valid and distinct.
	for i, f := range flows {
		if f.Src == f.Dst {
			t.Fatalf("flow %d has src==dst", i)
		}
		if f.Src < 0 || f.Src >= cfg.Hosts || f.Dst < 0 || f.Dst >= cfg.Hosts {
			t.Fatalf("flow %d pair out of range", i)
		}
		if i > 0 && f.Start < flows[i-1].Start {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestGeneratePoissonDeterminism(t *testing.T) {
	cfg := PoissonConfig{Hosts: 10, Load: 0.3, HostRate: sim.Gbps, Dist: WebSearch(), Count: 500, Seed: 42}
	a := GeneratePoisson(cfg)
	b := GeneratePoisson(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs between runs", i)
		}
	}
	cfg.Seed = 43
	c := GeneratePoisson(cfg)
	same := 0
	for i := range a {
		if a[i].Size == c[i].Size {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical flows")
	}
}

func TestGeneratePoissonPanics(t *testing.T) {
	for _, cfg := range []PoissonConfig{
		{Hosts: 1, Load: 0.5, HostRate: sim.Gbps, Dist: Fixed(1), Count: 1},
		{Hosts: 4, Load: 0, HostRate: sim.Gbps, Dist: Fixed(1), Count: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			GeneratePoisson(cfg)
		}()
	}
}

func TestManyToMany(t *testing.T) {
	senders := []int{0, 1, 2, 3}
	receivers := []int{10, 11}
	flows := ManyToMany(senders, receivers, 2, Fixed(1000), sim.Millisecond, 1)
	if len(flows) != 8 {
		t.Fatalf("flows = %d, want 8", len(flows))
	}
	perReceiver := map[int]int{}
	for _, f := range flows {
		if f.Start != sim.Millisecond || f.Size != 1000 {
			t.Errorf("bad flow %+v", f)
		}
		perReceiver[f.Dst]++
	}
	if perReceiver[10] != 4 || perReceiver[11] != 4 {
		t.Errorf("receivers unevenly loaded: %v", perReceiver)
	}
	// Each sender's connections go to distinct receivers.
	seen := map[[2]int]bool{}
	for _, f := range flows {
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			t.Errorf("sender %d connects twice to receiver %d", f.Src, f.Dst)
		}
		seen[key] = true
	}
}

func TestManyToManyTooManyConnsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-subscribed many-to-many did not panic")
		}
	}()
	ManyToMany([]int{0}, []int{1}, 2, Fixed(1), 0, 1)
}

func TestIncast(t *testing.T) {
	flows := Incast([]int{1, 2, 3}, 9, 64_000, sim.Microsecond)
	if len(flows) != 3 {
		t.Fatal("incast flow count")
	}
	for _, f := range flows {
		if f.Dst != 9 || f.Size != 64_000 || f.Start != sim.Microsecond {
			t.Errorf("bad incast flow %+v", f)
		}
	}
}

// Property: inverse-transform sampling approximates the CDF: the
// empirical fraction below each knot matches the knot probability.
func TestEmpiricalCDFProperty(t *testing.T) {
	w := WebSearch()
	rng := sim.NewRNG(5)
	const n = 100000
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = w.Sample(rng)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, pt := range w.points[1 : len(w.points)-1] {
		idx := sort.Search(n, func(i int) bool { return samples[i] >= pt.Bytes })
		got := float64(idx) / n
		if math.Abs(got-pt.Prob) > 0.01 {
			t.Errorf("fraction below %d = %.3f, want %.3f", pt.Bytes, got, pt.Prob)
		}
	}
}

// Property: Poisson inter-arrival times have the configured mean.
func TestPoissonInterarrivalProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := PoissonConfig{Hosts: 4, Load: 0.4, HostRate: sim.Gbps, Dist: Fixed(50_000), Count: 3000, Seed: seed}
		flows := GeneratePoisson(cfg)
		// λ = 0.4 * 4 * 1e9 / (8*50000) = 4000 flows/s → mean gap 250µs.
		mean := flows[len(flows)-1].Start.Seconds() / float64(len(flows))
		return math.Abs(mean-250e-6) < 50e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
