package experiment

import "testing"

// TestHeadToHeadSIRDBufferVsAMRT pins the trade-off the SIRD stack
// exists for: on the fat-tree incast, the bounded credit pool must keep
// buffer occupancy at or below AMRT's while giving up little goodput.
// The shuffle cell rides along as a sanity check that every leg
// completes its flows under sustained all-to-all load.
func TestHeadToHeadSIRDBufferVsAMRT(t *testing.T) {
	if testing.Short() {
		t.Skip("head-to-head runs 6 audited fat-tree cells")
	}
	cells := HeadToHead(StackOptions{})
	if want := 2 * len(HeadToHeadProtocols()); len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	byKey := map[string]HeadToHeadCell{}
	for _, c := range cells {
		byKey[c.Workload+"/"+c.Stack] = c
		if c.Completed != c.Total {
			t.Errorf("%s/%s completed %d/%d flows", c.Workload, c.Stack, c.Completed, c.Total)
		}
	}

	sird, amrt := byKey["incast/SIRD"], byKey["incast/AMRT"]
	if sird.Stack == "" || amrt.Stack == "" {
		t.Fatal("missing incast cells for SIRD or AMRT")
	}
	if sird.MaxQueue > amrt.MaxQueue {
		t.Errorf("incast: SIRD max queue %d pkts exceeds AMRT's %d — the credit pool is not bounding buffers",
			sird.MaxQueue, amrt.MaxQueue)
	}
	if sird.Utilization < 0.9*amrt.Utilization {
		t.Errorf("incast: SIRD utilization %.3f is not comparable to AMRT's %.3f (want >= 90%%)",
			sird.Utilization, amrt.Utilization)
	}

	// The table must render a row per cell without panicking on shape.
	if tb := HeadToHeadTable(cells); len(tb.Rows) != len(cells) {
		t.Errorf("table has %d rows, want %d", len(tb.Rows), len(cells))
	}
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
