package amrt

import (
	"context"
	"testing"
	"time"
)

func smallTopo() Topology {
	return Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 5}
}

// mustRun is RunContext for a test whose configuration is valid.
func mustRun(t testing.TB, cfg Config) Result {
	t.Helper()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext(%+v): %v", cfg, err)
	}
	return res
}

func TestRunDefaultsComplete(t *testing.T) {
	res := mustRun(t, Config{Flows: 200, Topology: smallTopo()})
	if res.Protocol != "AMRT" || res.Workload != "WebSearch" {
		t.Errorf("defaults wrong: %+v", res)
	}
	if res.Completed != res.Total || res.Total != 200 {
		t.Errorf("completed %d/%d", res.Completed, res.Total)
	}
	if res.AFCT <= 0 || res.P99 < res.AFCT {
		t.Errorf("FCT stats implausible: afct=%v p99=%v", res.AFCT, res.P99)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization %v out of range", res.Utilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Flows: 150, Topology: smallTopo(), Seed: 42}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a != b {
		t.Errorf("same config produced different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 43
	c := mustRun(t, cfg)
	if a == c {
		t.Error("different seed produced identical results")
	}
}

func TestCompareCoversAllProtocols(t *testing.T) {
	list, err := CompareContext(context.Background(), Config{Flows: 120, Topology: smallTopo(), Workload: "CacheFollower"})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 5 {
		t.Fatalf("Compare returned %d protocols", len(list))
	}
	results := map[string]Result{}
	for _, r := range list {
		results[r.Protocol] = r
	}
	for _, p := range Protocols() {
		r, ok := results[p]
		if !ok {
			t.Fatalf("missing protocol %s", p)
		}
		if r.Completed == 0 {
			t.Errorf("%s completed no flows", p)
		}
	}
	// The paper's headline: AMRT beats pHost on AFCT.
	if results["AMRT"].AFCT >= results["pHost"].AFCT {
		t.Errorf("AMRT AFCT %v not better than pHost %v", results["AMRT"].AFCT, results["pHost"].AFCT)
	}
}

func TestProtocolAndWorkloadLists(t *testing.T) {
	if len(Protocols()) != 5 || Protocols()[3] != "AMRT" || Protocols()[4] != "SIRD" {
		t.Errorf("Protocols() = %v", Protocols())
	}
	if len(Workloads()) != 5 {
		t.Errorf("Workloads() = %v", Workloads())
	}
}

func TestGainModel(t *testing.T) {
	uMin, uMax, fMin, fMax := Gain(1_000_000, 0.5, 1, 100*time.Microsecond)
	if uMin < 1 || uMax < uMin {
		t.Errorf("utilization gains: min=%v max=%v", uMin, uMax)
	}
	if fMin < 1 || fMax < fMin {
		t.Errorf("FCT gains: min=%v max=%v", fMin, fMax)
	}
}

func TestTopologyOverrides(t *testing.T) {
	res := mustRun(t, Config{
		Flows:    100,
		Workload: "WebServer",
		Topology: Topology{Leaves: 2, Spines: 1, HostsPerLeaf: 4, LinkGbps: 1, RTT: 200 * time.Microsecond},
	})
	if res.Completed != 100 {
		t.Errorf("completed %d/100 on custom topology", res.Completed)
	}
}

// TestRunAuditedNodeFaults drives the public API through a host crash
// with the invariant auditor on: the run must finish without an audit
// panic, report the crash casualties in Killed, and complete every
// other flow — with zero watchdog stalls.
func TestRunAuditedNodeFaults(t *testing.T) {
	res := mustRun(t, Config{
		Flows:    200,
		Topology: smallTopo(),
		Faults:   "crash=h0.1,at=2ms,up=6ms;rehash=4ms",
		Audit:    true,
	})
	if res.Stalled != 0 {
		t.Errorf("%d flows stalled", res.Stalled)
	}
	if res.Completed+res.Killed != res.Total {
		t.Errorf("%d completed + %d killed != %d total", res.Completed, res.Killed, res.Total)
	}
}

// TestAuditDoesNotChangeResults pins the observer property: the same
// run with and without the auditor yields identical measurements (the
// auditor only adds check events, which read state without touching it).
func TestAuditDoesNotChangeResults(t *testing.T) {
	cfg := Config{Flows: 150, Topology: smallTopo(), Seed: 42}
	plain := mustRun(t, cfg)
	cfg.Audit = true
	audited := mustRun(t, cfg)
	plain.Events, audited.Events = 0, 0 // check events inflate the count
	if plain != audited {
		t.Errorf("audit changed results:\nplain   %+v\naudited %+v", plain, audited)
	}
}
