package experiment

import (
	"strconv"
	"strings"
	"testing"

	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

func TestTableBasics(t *testing.T) {
	tb := &Table{Title: "t", Cols: []string{"a", "b"}}
	tb.AddRow("1", "2")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"## t", "a  b", "1  2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", csv.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestParallelOrderAndCoverage(t *testing.T) {
	got := Parallel(100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d = %d", i, v)
		}
	}
	if out := Parallel(0, func(i int) int { return i }); len(out) != 0 {
		t.Error("empty input should give empty output")
	}
}

func TestNewStackUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown protocol did not panic")
		}
	}()
	MustStack("QUIC", StackOptions{})
}

func TestAllStacksOrder(t *testing.T) {
	stacks := AllStacks(StackOptions{})
	if len(stacks) != 5 {
		t.Fatalf("stacks = %d", len(stacks))
	}
	want := []string{"pHost", "Homa", "NDP", "AMRT", "SIRD"}
	for i, st := range stacks {
		if st.Name != want[i] {
			t.Errorf("stack %d = %s, want %s", i, st.Name, want[i])
		}
		if st.SwitchQueue == nil || st.HostQueue == nil || st.New == nil {
			t.Errorf("stack %s incomplete", st.Name)
		}
	}
	if stacks[3].Marker == nil {
		t.Error("AMRT stack must carry a marker factory")
	}
	if stacks[0].Marker != nil {
		t.Error("pHost stack must not carry a marker")
	}
}

// smallConfig is a fast fabric for integration assertions.
func smallConfig() SimConfig {
	cfg := DefaultSimConfig()
	cfg.Topo.Leaves, cfg.Topo.Spines, cfg.Topo.HostsPerLeaf = 2, 2, 6
	cfg.FlowsPerRun = 150
	cfg.BytesBudget = 1 << 28
	cfg.Loads = []float64{0.5}
	cfg.Workloads = []string{"WebSearch"}
	cfg.Repeats = 1
	return cfg
}

func TestLeafSpineRunCompletesAndConserves(t *testing.T) {
	cfg := smallConfig()
	w := workload.WebSearch()
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts: cfg.Topo.Hosts(), Load: 0.5, HostRate: cfg.Topo.HostRate,
		Dist: w, Count: 100, Seed: 3,
	})
	for _, proto := range ProtocolNames() {
		res := LeafSpineRun{Topo: cfg.Topo, Stack: MustStack(proto, StackOptions{}), Flows: flows, Horizon: cfg.Horizon}.Run()
		if res.Completed != res.Total {
			t.Errorf("%s: completed %d/%d", proto, res.Completed, res.Total)
		}
		if res.AFCT <= 0 || res.P99 < res.AFCT {
			t.Errorf("%s: FCT stats implausible afct=%v p99=%v", proto, res.AFCT, res.P99)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%s: utilization %v", proto, res.Utilization)
		}
	}
}

func TestFig12CellsAMRTBeatsPHost(t *testing.T) {
	cfg := smallConfig()
	cfg.Protocols = []string{"pHost", "AMRT"}
	cells := Fig12Cells(cfg)
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	ph := findCell(cells, "WebSearch", 0.5, "pHost")
	am := findCell(cells, "WebSearch", 0.5, "AMRT")
	if am.Res.AFCT >= ph.Res.AFCT {
		t.Errorf("AMRT AFCT %v not better than pHost %v", am.Res.AFCT, ph.Res.AFCT)
	}
	tables := Fig12Tables(cfg, cells)
	if len(tables) != 1 || len(tables[0].Rows) != 1 {
		t.Error("Fig12Tables shape wrong")
	}
}

func TestFig13CellsUtilizationOrdering(t *testing.T) {
	cfg := smallConfig()
	cfg.Workloads = []string{"DataMining"}
	cfg.Protocols = []string{"pHost", "AMRT"}
	// Enough heavy-tailed flows on the small fabric that conservative
	// clocking visibly under-uses the bottlenecks.
	cells := Fig13Cells(cfg, []int{250})
	var ph, am float64
	for _, c := range cells {
		switch c.Proto {
		case "pHost":
			ph = c.Res.Utilization
		case "AMRT":
			am = c.Res.Utilization
		}
	}
	if am < ph-0.01 {
		t.Errorf("AMRT utilization %.3f below pHost %.3f", am, ph)
	}
	if am <= 0 || am > 1 || ph <= 0 || ph > 1 {
		t.Errorf("utilizations out of range: %v %v", am, ph)
	}
	tables := Fig13Tables(cfg, []int{250}, cells)
	if len(tables) != 1 {
		t.Error("Fig13Tables shape wrong")
	}
}

func TestFig14AMRTHighUtilLowQueue(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Repeats = 1
	cfg.HomaDegrees = []int{2}
	cells := Fig14Cells(cfg, []float64{0.5})
	var amrt, homa M2MCell
	for _, c := range cells {
		switch c.Variant {
		case "AMRT":
			amrt = c
		case "Homa-d2":
			homa = c
		}
	}
	if amrt.Util <= homa.Util {
		t.Errorf("AMRT util %.3f not above Homa-d2 %.3f", amrt.Util, homa.Util)
	}
	if amrt.MaxQueue >= homa.MaxQueue {
		t.Errorf("AMRT max queue %.1f not below Homa %.1f", amrt.MaxQueue, homa.MaxQueue)
	}
	if amrt.MaxQueue > 16 {
		t.Errorf("AMRT queue %.1f exceeds its cap regime", amrt.MaxQueue)
	}
	tables := Fig14Tables(cfg, []float64{0.5}, cells)
	if len(tables) != 2 {
		t.Error("Fig14Tables shape wrong")
	}
}

func TestFig1PHostUnderUtilizationAMRTReclaims(t *testing.T) {
	ph := Fig1(MustStack("pHost", StackOptions{}))
	am := Fig1(MustStack("AMRT", StackOptions{}))
	// During the squeeze (both f2 and f3 active) pHost leaves the first
	// bottleneck under-used; AMRT reclaims most of it.
	from, to := 4*sim.Millisecond, 8*sim.Millisecond
	phu := ph.Util.MeanBetween(from, to)
	amu := am.Util.MeanBetween(from, to)
	if phu > 0.85 {
		t.Errorf("pHost squeezed utilization %.3f: under-utilization did not appear", phu)
	}
	if amu < 0.85 {
		t.Errorf("AMRT squeezed utilization %.3f: reclaim failed", amu)
	}
	if amu-phu < 0.1 {
		t.Errorf("AMRT advantage too small: %.3f vs %.3f", amu, phu)
	}
}

func TestFig2AMRTFinishesSooner(t *testing.T) {
	ph := Fig2(MustStack("pHost", StackOptions{}))
	am := Fig2(MustStack("AMRT", StackOptions{}))
	// Same byte total: AMRT must keep the link fuller on average.
	if am.Util.Mean() <= ph.Util.Mean() {
		t.Errorf("AMRT mean utilization %.3f not above pHost %.3f", am.Util.Mean(), ph.Util.Mean())
	}
	if len(ph.FlowSeries) != 4 || len(am.FlowSeries) != 4 {
		t.Error("expected four per-flow series")
	}
}

func TestFig5WithinModelNeighborhood(t *testing.T) {
	rows := Fig5([][2]int{{10, 4}, {10, 8}})
	for _, r := range rows {
		if !r.ConvergedToFull {
			t.Errorf("n=%d k=%d did not converge", r.N, r.K)
			continue
		}
		// The continuum simulation discretizes rate detection and needs
		// an extra round for the first marks to act, so allow the model
		// window stretched by +2 RTTs.
		if int(r.SimulatedRTTs) < r.ModelMinRTTs {
			t.Errorf("n=%d k=%d: simulated %v below model min %d", r.N, r.K, r.SimulatedRTTs, r.ModelMinRTTs)
		}
		if int(r.SimulatedRTTs) > r.ModelMaxRTTs+2 {
			t.Errorf("n=%d k=%d: simulated %v above model max %d (+2)", r.N, r.K, r.SimulatedRTTs, r.ModelMaxRTTs)
		}
	}
	tbl := Fig5Table(rows)
	if len(tbl.Rows) != 2 {
		t.Error("Fig5Table shape wrong")
	}
}

func TestFig7TablesShape(t *testing.T) {
	tables := Fig7Tables()
	if len(tables) != 2 {
		t.Fatal("want 2 tables")
	}
	if len(tables[0].Rows) != 9 || len(tables[1].Rows) != 9 {
		t.Error("unexpected row counts")
	}
	// First data column pair is the 64KB min/max gains; min <= max.
	for _, row := range tables[0].Rows {
		if row[1] > row[2] { // lexicographic works for same-width %.3f values
			t.Errorf("min gain %s exceeds max %s", row[1], row[2])
		}
	}
}

func TestFig9AMRTAbsorbsReleasedBandwidth(t *testing.T) {
	res := Fig9(MustStack("AMRT", StackOptions{}))
	for i, f := range res.Flows {
		if !f.Done {
			t.Fatalf("flow %d did not complete", i+1)
		}
	}
	// f2 (2MB) at a permanent half share of 1G would need 32ms; with f1
	// finishing at ~5ms AMRT must finish f2 clearly sooner.
	if fct := res.Flows[1].FCT(); fct > 30*sim.Millisecond {
		t.Errorf("f2 FCT %v: released bandwidth not absorbed", fct)
	}
	if len(res.Series) != 4 {
		t.Error("expected four throughput series")
	}
}

func TestFig11AMRTBestForF2(t *testing.T) {
	results, cmp := Fig11All()
	if want := len(ProtocolNames()); len(results) != want || len(cmp.Rows) != 4 {
		t.Fatal("Fig11All shape wrong")
	}
	var amrtF2, phostF2 sim.Time
	for _, r := range results {
		if !r.Flows[1].Done {
			t.Fatalf("%s: f2 did not complete", r.Stack)
		}
		switch r.Stack {
		case "AMRT":
			amrtF2 = r.Flows[1].FCT()
		case "pHost":
			phostF2 = r.Flows[1].FCT()
		}
	}
	// Paper: AMRT reduces f2's FCT by ~36% vs pHost.
	if amrtF2 >= phostF2 {
		t.Errorf("AMRT f2 FCT %v not better than pHost %v", amrtF2, phostF2)
	}
}

func TestMarkingAblationRanksNoMarkingWorst(t *testing.T) {
	tbl := MarkingAblation()
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The last row is pHost (no marking): it must be the slowest
	// completed variant on the ramp scenario.
	get := func(i int) float64 {
		v, err := strconv.ParseFloat(tbl.Rows[i][1], 64)
		if err != nil {
			t.Fatalf("row %d FCT %q: %v", i, tbl.Rows[i][1], err)
		}
		return v
	}
	base, worst := get(0), get(len(tbl.Rows)-1)
	if worst <= 2*base {
		t.Errorf("no-marking FCT %.3f not clearly worse than AMRT default %.3f", worst, base)
	}
}

func TestQueueCapAblationShape(t *testing.T) {
	tbl := QueueCapAblation()
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Larger caps must never show a *smaller* max queue.
	if tbl.Rows[0][4] > tbl.Rows[4][4] {
		t.Errorf("queue watermark not increasing with cap: %v vs %v", tbl.Rows[0][4], tbl.Rows[4][4])
	}
}

func TestSimConfigFlowBudget(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.FlowsPerRun = 1000
	cfg.BytesBudget = 10_000_000
	if n := cfg.flowCount(100_000); n != 100 {
		t.Errorf("flowCount = %d, want 100", n)
	}
	if n := cfg.flowCount(1_000_000_000); n != 50 {
		t.Errorf("flowCount floor = %d, want 50", n)
	}
	cfg.BytesBudget = 0
	if n := cfg.flowCount(1); n != 1000 {
		t.Errorf("unbudgeted flowCount = %d", n)
	}
}

func TestPaperSimConfigShape(t *testing.T) {
	cfg := PaperSimConfig()
	if cfg.Topo.Hosts() != 400 || len(cfg.Loads) != 7 {
		t.Errorf("paper config wrong: %d hosts, %d loads", cfg.Topo.Hosts(), len(cfg.Loads))
	}
}

func TestFig14TopoShape(t *testing.T) {
	tc := Fig14Topo()
	if tc.Leaves != 3 || tc.HostsPerLeaf != 20 {
		t.Errorf("Fig14 topology wrong: %+v", tc)
	}
	ls := tc.Build(topo.Overlay{})
	if len(ls.Hosts) != 60 {
		t.Errorf("hosts = %d", len(ls.Hosts))
	}
}
