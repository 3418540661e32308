package experiment

import (
	"strconv"
	"strings"
	"testing"

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

func TestSizeBreakdownTableShape(t *testing.T) {
	cfg := smallConfig()
	cfg.Protocols = []string{"pHost", "AMRT"}
	tbl := SizeBreakdownTable(cfg, "WebSearch", 0.5)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Cols) != 7 {
		t.Fatalf("cols = %d", len(tbl.Cols))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q: %v", s, err)
		}
		return v
	}
	for _, row := range tbl.Rows {
		small := parse(row[1])
		large := parse(row[5])
		if small <= 0 || large <= 0 {
			t.Errorf("%s: empty size class (small=%v large=%v)", row[0], small, large)
		}
		// Short flows must complete far faster than the heavy tail.
		if small >= large {
			t.Errorf("%s: short-flow mean %.3f not below large-flow mean %.3f", row[0], small, large)
		}
		// p99 >= mean within each class.
		for c := 1; c < 7; c += 2 {
			if parse(row[c]) > parse(row[c+1]) {
				t.Errorf("%s: mean %s > p99 %s", row[0], row[c], row[c+1])
			}
		}
	}
}

func TestSizeBreakdownUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown workload did not panic")
		}
	}()
	SizeBreakdownTable(smallConfig(), "nope", 0.5)
}

// TestHeadToHeadProtocolsFromRegistry checks the comparison legs come
// from the stack table in presentation order — pHost before AMRT before
// SIRD — rather than a hand-kept list.
func TestHeadToHeadProtocolsFromRegistry(t *testing.T) {
	got := HeadToHeadProtocols()
	want := []string{"pHost", "AMRT", "SIRD"}
	if len(got) != len(want) {
		t.Fatalf("HeadToHeadProtocols() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HeadToHeadProtocols() = %v, want %v", got, want)
		}
	}
}
