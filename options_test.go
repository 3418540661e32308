package amrt

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestHomaDegreeAliasEquivalence proves the two spellings of Homa's
// default are one configuration: an unset Options.HomaDegree and an
// explicit 2 give byte-identical results, and a degree that differs
// reaches the stack. SIRD's staleness window is the same case: unset
// and an explicit 8 give one Result and one sweep cache key.
func TestHomaDegreeAliasEquivalence(t *testing.T) {
	base := Config{Protocol: "Homa", Workload: "WebServer", Flows: 120, Topology: smallTopo()}
	two, four := base, base
	two.Options = StackOptions{HomaDegree: 2}
	four.Options = StackOptions{HomaDegree: 4}

	unsetRes := mustRun(t, base)
	if twoRes := mustRun(t, two); unsetRes != twoRes {
		t.Errorf("unset and explicit default degree diverge:\n%+v\n%+v", unsetRes, twoRes)
	}
	if fourRes := mustRun(t, four); fourRes == unsetRes {
		t.Error("degree 4 produced the default degree's results")
	}

	sird := Config{Protocol: "SIRD", Workload: "WebServer", Flows: 120, Topology: smallTopo()}
	eight := sird
	eight.Options = StackOptions{SIRDStalenessRTTs: 8}
	if unset, explicit := mustRun(t, sird), mustRun(t, eight); unset != explicit {
		t.Errorf("unset and explicit default staleness diverge:\n%+v\n%+v", unset, explicit)
	}
	if sweepKey(sird.normalized()) != sweepKey(eight.normalized()) {
		t.Error("unset and explicit default staleness have different cache keys")
	}
}

// TestSIRDOptionsChangeResults checks the SIRD knobs actually reach the
// stack: shrinking the credit pool to one packet must change behavior.
func TestSIRDOptionsChangeResults(t *testing.T) {
	base := Config{Protocol: "SIRD", Workload: "WebServer", Flows: 120, Topology: smallTopo()}
	def := mustRun(t, base)
	tiny := base
	tiny.Options = StackOptions{SIRDPoolBytes: 1500}
	if got := mustRun(t, tiny); got == def {
		t.Error("one-packet credit pool produced identical results to the default pool")
	}
	if def.Completed == 0 {
		t.Error("SIRD completed no flows")
	}
}

// TestCompareAcceptsSharedOptions checks a comparison run may carry
// knobs for several protocols at once: CompareContext narrows the shared
// struct per leg, so per-leg validation never sees a foreign option.
func TestCompareAcceptsSharedOptions(t *testing.T) {
	res, err := CompareContext(context.Background(), Config{
		Workload: "WebServer",
		Flows:    80,
		Topology: smallTopo(),
		Options:  StackOptions{HomaDegree: 4, SIRDPoolBytes: 64 << 10, SIRDStalenessRTTs: 4},
	})
	if err != nil {
		t.Fatalf("CompareContext: %v", err)
	}
	if len(res) != len(Protocols()) {
		t.Fatalf("results = %d, want %d", len(res), len(Protocols()))
	}
	for _, r := range res {
		if r.Completed == 0 {
			t.Errorf("%s completed no flows", r.Protocol)
		}
	}
	// Value errors in shared options still surface.
	if _, err := CompareContext(context.Background(), Config{
		Flows: 10, Topology: smallTopo(),
		Options: StackOptions{SIRDPoolBytes: -1},
	}); err == nil {
		t.Error("negative SIRDPoolBytes accepted by CompareContext")
	}
}

// TestCompareValidatesEveryLegFirst checks a bad value for the last
// leg (SIRD) fails the comparison before any leg runs: no results and
// no output file from the legs ahead of it.
func TestCompareValidatesEveryLegFirst(t *testing.T) {
	dir := t.TempDir()
	res, err := CompareContext(context.Background(), Config{
		Flows: 10, Topology: smallTopo(),
		Options:     StackOptions{SIRDPoolBytes: -1},
		MetricsPath: filepath.Join(dir, "out.json"),
	})
	if !errors.Is(err, ErrBadStackOption) {
		t.Fatalf("CompareContext err = %v, want ErrBadStackOption", err)
	}
	if len(res) != 0 {
		t.Errorf("CompareContext returned %d results, want none", len(res))
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("legs ran before validation failed: %d files written", len(files))
	}
}
