package netsim

import (
	"testing"

	"amrt/internal/sim"
)

// fuzzAddRouteMaxScript caps a script at 400 AddRoute calls: enough to
// revisit every destination many times over, short enough that the
// fuzzer's minimisation stays quick.
const fuzzAddRouteMaxScript = 1 + 400

// FuzzAddRoute runs a script of AddRoute calls against a per-destination
// slice model. data[0] picks the number of egress ports (1–8) and of
// destinations (1–8); each following byte is one call, its high nibble
// the destination and its low nibble the port, so a script revisits
// destinations in any order and may add a port twice. After every call
// each destination's Routes must equal its model with no spare
// capacity, and two destinations must share a route set exactly when
// their models are equal.
func FuzzAddRoute(f *testing.F) {
	f.Add([]byte{0x00, 0x00})                                     // one port, one route
	f.Add([]byte{0x33, 0x00, 0x01, 0x02, 0x03, 0x10, 0x11, 0x12}) // back to back, as the builders add them
	f.Add([]byte{0x77, 0x00, 0x11, 0x22, 0x01, 0x12, 0x23, 0x02}) // round-robin: every call revisits a set
	f.Add([]byte{0x12, 0x00, 0x00, 0x10, 0x10, 0x21, 0x01})       // a port twice, and a shared prefix
	script := []byte{0x77}
	for i := 0; i < 300; i++ { // long sets, re-entered from every destination
		script = append(script, byte((i*5%8)<<4|i*3%8))
	}
	f.Add(script)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > fuzzAddRouteMaxScript {
			data = data[:fuzzAddRouteMaxScript]
		}
		nports, ndst := int(data[0]&7)+1, int(data[0]>>4&7)+1
		n := New()
		sw, peer := n.NewSwitch("S"), n.NewSwitch("U")
		dsts := make([]*Host, ndst)
		for i := range dsts {
			dsts[i] = n.NewHost("H")
		}
		ports := make([]*Port, nports)
		for i := range ports {
			ports[i] = n.AttachPort(sw, peer, sim.Gbps, sim.Microsecond, nil)
		}
		model := make([][]*Port, ndst)
		for step, rec := range data[1:] {
			d, p := int(rec>>4)%ndst, int(rec&15)%nports
			sw.AddRoute(dsts[d].ID(), ports[p])
			model[d] = append(model[d], ports[p])
			checkRoutes(t, step, sw, dsts, model)
		}
		if sw.Routes(peer.ID()) != nil || sw.Routes(-1) != nil || sw.Routes(NodeID(len(dsts)+2)) != nil {
			t.Fatal("Routes for a destination without any should be nil")
		}
	})
}

// checkRoutes compares every destination's routes with its model and
// checks the interning: equal models, one set and one storage; unequal
// models, different sets.
func checkRoutes(t *testing.T, step int, sw *Switch, dsts []*Host, model [][]*Port) {
	t.Helper()
	for d, h := range dsts {
		got := sw.Routes(h.ID())
		if len(got) != len(model[d]) || cap(got) != len(got) {
			t.Fatalf("step %d dst %d: %d routes with capacity %d, want %d with none spare", step, d, len(got), cap(got), len(model[d]))
		}
		if len(got) == 0 && got != nil {
			t.Fatalf("step %d dst %d: empty routes are not nil", step, d)
		}
		for i := range got {
			if got[i] != model[d][i] {
				t.Fatalf("step %d dst %d route %d = %v, want %v", step, d, i, got[i], model[d][i])
			}
		}
		for e := 0; e < d; e++ {
			same := sw.routeOf[h.ID()] == sw.routeOf[dsts[e].ID()]
			if equal := samePorts(model[d], model[e]); same != equal {
				t.Fatalf("step %d: dsts %d and %d share a set: %v, have equal routes: %v", step, e, d, same, equal)
			}
			if other := sw.Routes(dsts[e].ID()); same && len(got) > 0 && &got[0] != &other[0] {
				t.Fatalf("step %d: dsts %d and %d share a set but not its storage", step, e, d)
			}
		}
	}
}

func samePorts(a, b []*Port) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAddRouteForeignPortPanics: a route leaves through one of the
// switch's own ports, whose administrative state the switch counts.
func TestAddRouteForeignPortPanics(t *testing.T) {
	n := New()
	sw, other := n.NewSwitch("S"), n.NewSwitch("T")
	h := n.NewHost("H")
	p, _ := n.Connect(other, h, sim.Gbps, sim.Microsecond, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("AddRoute through another switch's port did not panic")
		}
	}()
	sw.AddRoute(h.ID(), p)
}

// TestAdminDownCount: a switch's count of down ports follows its ports
// exactly through repeated and redundant transitions — down, down, up,
// up on one port while others change — and a host NIC going down
// counts nowhere.
func TestAdminDownCount(t *testing.T) {
	n, a, _, up1, up2 := ecmpPairNet(t)
	leaf := up1.Owner().(*Switch)
	steps := []struct {
		p    *Port
		down bool
		want int
	}{
		{up1, true, 1},
		{up1, true, 1},
		{up2, true, 2},
		{up1, false, 1},
		{up1, false, 1},
		{up2, false, 0},
		{up2, false, 0},
	}
	for i, s := range steps {
		s.p.SetAdminDown(s.down)
		if leaf.downPorts != s.want {
			t.Fatalf("step %d: %d ports counted down, want %d", i, leaf.downPorts, s.want)
		}
	}
	a.NIC().SetAdminDown(true)
	for _, sw := range n.Switches() {
		if sw.downPorts != 0 {
			t.Errorf("%s counts %d down ports after a host NIC went down", sw.Name(), sw.downPorts)
		}
	}
}
