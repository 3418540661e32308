package experiment

import (
	"reflect"
	"strings"
	"testing"

	"amrt/internal/netsim"
)

// TestRegistryRoundTrip builds every stack in the table by name and
// checks the pieces a runner needs are all present.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range StackNames() {
		st, err := NewStack(name, StackOptions{})
		if err != nil {
			t.Fatalf("NewStack(%q): %v", name, err)
		}
		if st.Name != name {
			t.Errorf("NewStack(%q).Name = %q", name, st.Name)
		}
		if st.SwitchQueue == nil || st.HostQueue == nil || st.New == nil {
			t.Errorf("%s: incomplete stack", name)
		}
		if !HasStack(name) {
			t.Errorf("HasStack(%q) = false", name)
		}
	}
}

// TestStackOverlays pins each stack's queue disciplines, their per-band
// caps and AMRT's marker. A run's outputs see these values only through
// their effects; this reads them off the factories directly.
func TestStackOverlays(t *testing.T) {
	var none *netsim.Slabs // factories carve nothing from a nil Slabs
	amrtMarker := &netsim.AntiECNMarker{GapFactor: 1, Mode: netsim.CombineAND}
	for _, c := range []struct {
		name    string
		switchQ netsim.Queue
		hostQ   netsim.Queue
		marker  netsim.DequeueMarker
	}{
		{"pHost", none.NewPriority(256, 12, 12), none.NewPriority(1024), nil},
		{"Homa", none.NewPriority(256, 128, 128), none.NewPriority(1024), nil},
		{"NDP", none.NewTrimming(8, 256), none.NewPriority(2048), nil},
		{"AMRT", none.NewPriority(256, 8, 8), none.NewPriority(1024), amrtMarker},
		{"SIRD", none.NewPriority(256, 4, 4), none.NewPriority(1024), nil},
		{"DCTCP", none.NewECN(128, 32), none.NewDropTail(1024), nil},
	} {
		st := MustStack(c.name, StackOptions{})
		if got := st.SwitchQueue(none); !reflect.DeepEqual(got, c.switchQ) {
			t.Errorf("%s switch queue %#v, want %#v", c.name, got, c.switchQ)
		}
		if got := st.HostQueue(none); !reflect.DeepEqual(got, c.hostQ) {
			t.Errorf("%s host queue %#v, want %#v", c.name, got, c.hostQ)
		}
		var got netsim.DequeueMarker
		if st.Marker != nil {
			got = st.Marker(none)
		}
		if !reflect.DeepEqual(got, c.marker) {
			t.Errorf("%s marker %#v, want %#v", c.name, got, c.marker)
		}
	}
}

// TestRegistryPresentationOrder pins the comparison order the figures
// depend on and checks AllStacks follows it.
func TestRegistryPresentationOrder(t *testing.T) {
	want := []string{"pHost", "Homa", "NDP", "AMRT", "SIRD"}
	got := ProtocolNames()
	if len(got) != len(want) {
		t.Fatalf("ProtocolNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ProtocolNames() = %v, want %v", got, want)
		}
	}
	for i, st := range AllStacks(StackOptions{}) {
		if st.Name != want[i] {
			t.Errorf("AllStacks()[%d] = %s, want %s", i, st.Name, want[i])
		}
	}
	rel := RelatedNames()
	if len(rel) != 1 || rel[0] != "DCTCP" {
		t.Errorf("RelatedNames() = %v, want [DCTCP]", rel)
	}
	all := StackNames()
	if len(all) != len(want)+1 || all[len(all)-1] != "DCTCP" {
		t.Errorf("StackNames() = %v", all)
	}
}

// TestNewStackUnknownError checks the error path that replaced the old
// panic: an unknown name reports itself and the known set.
func TestNewStackUnknownError(t *testing.T) {
	_, err := NewStack("QUIC", StackOptions{})
	if err == nil {
		t.Fatal("NewStack(QUIC) succeeded")
	}
	if !strings.Contains(err.Error(), "QUIC") || !strings.Contains(err.Error(), "AMRT") {
		t.Errorf("error %q should name the unknown protocol and the known set", err)
	}
	if HasStack("QUIC") {
		t.Error("HasStack(QUIC) = true")
	}
}

// stackOptionCases lists every option with the stack that reads it.
var stackOptionCases = []struct {
	field         string
	set, negative StackOptions
	owner         string
}{
	{"HomaDegree", StackOptions{HomaDegree: 4}, StackOptions{HomaDegree: -1}, "Homa"},
	{"SIRDPoolBytes", StackOptions{SIRDPoolBytes: 1 << 20}, StackOptions{SIRDPoolBytes: -1}, "SIRD"},
	{"SIRDStalenessRTTs", StackOptions{SIRDStalenessRTTs: 4}, StackOptions{SIRDStalenessRTTs: -1}, "SIRD"},
}

// TestForeignOptionProbes checks every option against every stack: the
// stack that reads it accepts it and narrows to it, and every other
// stack rejects it naming the owner and narrows it away.
func TestForeignOptionProbes(t *testing.T) {
	for _, c := range stackOptionCases {
		for _, name := range StackNames() {
			err := CheckOptions(name, c.set)
			narrowed := NarrowOptions(name, c.set)
			if name == c.owner {
				if err != nil {
					t.Errorf("%s on %s: %v, want ok", c.field, name, err)
				}
				if narrowed != c.set {
					t.Errorf("NarrowOptions(%s, %+v) = %+v, want it unchanged", name, c.set, narrowed)
				}
			} else {
				if err == nil || !strings.Contains(err.Error(), c.owner+" knobs") {
					t.Errorf("%s on %s: %v, want an error naming %s", c.field, name, err, c.owner)
				}
				if narrowed != (StackOptions{}) {
					t.Errorf("NarrowOptions(%s, %+v) = %+v, want none", name, c.set, narrowed)
				}
			}
		}
	}
}

// TestCheckAndNarrowOptions checks that a negative value is an error on
// every stack, that zero options are fine everywhere, and that each
// stack narrows options shared across stacks to the ones it reads.
func TestCheckAndNarrowOptions(t *testing.T) {
	for _, c := range stackOptionCases {
		for _, name := range StackNames() {
			if err := CheckOptions(name, c.negative); err == nil {
				t.Errorf("negative %s accepted on %s", c.field, name)
			} else if name == c.owner && !strings.Contains(err.Error(), c.field+" -1 must be non-negative") {
				t.Errorf("negative %s on %s: %v", c.field, name, err)
			}
		}
	}
	shared := StackOptions{HomaDegree: 4, SIRDPoolBytes: 1 << 20, SIRDStalenessRTTs: 4}
	for _, name := range StackNames() {
		if err := CheckOptions(name, StackOptions{}); err != nil {
			t.Errorf("zero options on %s: %v", name, err)
		}
		var want StackOptions
		for _, c := range stackOptionCases {
			if c.owner == name {
				want.HomaDegree += c.set.HomaDegree
				want.SIRDPoolBytes += c.set.SIRDPoolBytes
				want.SIRDStalenessRTTs += c.set.SIRDStalenessRTTs
			}
		}
		if got := NarrowOptions(name, shared); got != want {
			t.Errorf("NarrowOptions(%s, %+v) = %+v, want %+v", name, shared, got, want)
		}
	}
}
