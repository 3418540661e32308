package topo

import (
	"fmt"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// leafSpine builds cfg without an overlay.
func leafSpine(cfg LeafSpineConfig) *Fabric { return cfg.Build(Overlay{}) }

// hostOfLeaf returns host i of leaf l: hosts are leaf-major.
func hostOfLeaf(cfg LeafSpineConfig, f *Fabric, l, i int) *netsim.Host {
	return f.Hosts[l*cfg.HostsPerLeaf+i]
}

func TestLeafSpineRoutesComplete(t *testing.T) {
	cfg := DefaultLeafSpine()
	ls := leafSpine(cfg)
	CheckConnected(ls.Net)
	if len(ls.Hosts) != 40 {
		t.Fatalf("hosts = %d, want 40", len(ls.Hosts))
	}
	// A leaf reaches a remote host through every spine (ECMP width =
	// #spines) and a local host through exactly one port.
	leaf0 := ls.Switches[0]
	remote := hostOfLeaf(cfg, ls, 1, 0)
	local := hostOfLeaf(cfg, ls, 0, 0)
	if got := len(leaf0.Routes(remote.ID())); got != cfg.Spines {
		t.Errorf("leaf0 routes to remote host = %d, want %d", got, cfg.Spines)
	}
	if got := len(leaf0.Routes(local.ID())); got != 1 {
		t.Errorf("leaf0 routes to local host = %d, want 1", got)
	}
	// A spine reaches any host through exactly one leaf.
	for _, h := range ls.Hosts[:5] {
		if got := len(ls.Switches[cfg.Leaves].Routes(h.ID())); got != 1 {
			t.Errorf("spine routes to %s = %d, want 1", h.Name(), got)
		}
	}
}

func TestLeafSpineCrossRackRTT(t *testing.T) {
	cfg := DefaultLeafSpine()
	ls := leafSpine(cfg)
	src := hostOfLeaf(cfg, ls, 0, 0)
	dst := hostOfLeaf(cfg, ls, 1, 0)
	var fwd, back sim.Time
	dst.Handler = func(pkt *netsim.Packet) {
		fwd = ls.Net.Engine.Now()
		dst.Send(&netsim.Packet{Flow: pkt.Flow, Type: netsim.Ack, Size: netsim.ControlSize,
			Src: dst.ID(), Dst: src.ID(), Prio: netsim.PrioControl})
	}
	src.Handler = func(pkt *netsim.Packet) { back = ls.Net.Engine.Now() }
	ls.Net.Engine.Schedule(0, func() {
		src.Send(&netsim.Packet{Flow: 1, Type: netsim.Data, Size: netsim.ControlSize,
			Src: src.ID(), Dst: dst.ID(), Prio: netsim.PrioData})
	})
	ls.Net.Run(sim.Second)
	if fwd == 0 || back == 0 {
		t.Fatal("round trip did not complete")
	}
	// Propagation RTT is 8×12.5µs = 100µs; serialization of two 64B
	// packets over 8 hops adds ~0.4µs and delivery jitter up to 600ns
	// per hop adds a few more.
	rtt := back
	if rtt < 100*sim.Microsecond || rtt > 106*sim.Microsecond {
		t.Errorf("cross-rack RTT = %v, want ~100-106µs", rtt)
	}
	if got := ls.RTT(); got != 100*sim.Microsecond {
		t.Errorf("RTT() = %v, want 100µs", got)
	}
}

func TestLeafSpineIntraLeafStaysLocal(t *testing.T) {
	cfg := DefaultLeafSpine()
	ls := leafSpine(cfg)
	src := hostOfLeaf(cfg, ls, 0, 0)
	dst := hostOfLeaf(cfg, ls, 0, 1)
	var hops int8
	dst.Handler = func(pkt *netsim.Packet) { hops = pkt.Hops }
	ls.Net.Engine.Schedule(0, func() {
		src.Send(&netsim.Packet{Flow: 1, Type: netsim.Data, Size: netsim.MSS,
			Src: src.ID(), Dst: dst.ID(), Prio: netsim.PrioData})
	})
	ls.Net.Run(sim.Second)
	if hops != 2 {
		t.Errorf("intra-leaf path hops = %d, want 2", hops)
	}
}

func TestLeafSpineMarkerInstalled(t *testing.T) {
	cfg := DefaultLeafSpine()
	markers := 0
	ls := cfg.Build(Overlay{Marker: func(s *netsim.Slabs) netsim.DequeueMarker {
		markers++
		return s.NewAntiECNMarker(1, netsim.CombineAND)
	}})
	if ls.Downlink(0).Marker == nil {
		t.Error("downlink has no marker")
	}
	// Host NICs must NOT mark — a sender's own back-to-back output
	// would clear CE before the network saw it (§3 puts marking in
	// switches).
	if ls.Hosts[0].NIC().Marker != nil {
		t.Error("host NIC unexpectedly has a marker")
	}
	// 1 per host downlink + 2 per leaf-spine link pair.
	want := len(ls.Hosts) + 2*cfg.Leaves*cfg.Spines
	if markers != want {
		t.Errorf("markers created = %d, want %d", markers, want)
	}
}

func TestLeafSpineECMPSpreadsFlows(t *testing.T) {
	cfg := DefaultLeafSpine()
	ls := leafSpine(cfg)
	src := hostOfLeaf(cfg, ls, 0, 0)
	dst := hostOfLeaf(cfg, ls, 1, 0)
	dst.Handler = func(pkt *netsim.Packet) {}
	for f := 0; f < 256; f++ {
		f := f
		ls.Net.Engine.Schedule(sim.Time(f)*sim.Microsecond*20, func() {
			src.Send(&netsim.Packet{Flow: netsim.FlowID(f), Type: netsim.Data, Size: netsim.MSS,
				Src: src.ID(), Dst: dst.ID(), Prio: netsim.PrioData})
		})
	}
	ls.Net.Run(sim.Second)
	// Count spine usage via leaf0 uplink ports.
	used := 0
	for _, p := range ls.Switches[0].Ports() {
		if _, isSwitch := p.Link().To.(*netsim.Switch); isSwitch && p.TxPackets > 0 {
			used++
		}
	}
	if used != cfg.Spines {
		t.Errorf("flows used %d spines, want all %d", used, cfg.Spines)
	}
}

func TestChainTopologyPaths(t *testing.T) {
	s := Chain().Build(Overlay{})
	CheckConnected(s.Net)
	if len(s.Bottlenecks) != 2 {
		t.Fatal("chain must expose 2 bottlenecks")
	}
	// f0: S0 -> R0 must cross both bottlenecks.
	done := false
	s.Receivers[0].Handler = func(pkt *netsim.Packet) { done = true }
	s.Net.Engine.Schedule(0, func() {
		s.Senders[0].Send(&netsim.Packet{Flow: 1, Type: netsim.Data, Size: netsim.MSS,
			Src: s.Senders[0].ID(), Dst: s.Receivers[0].ID(), Prio: netsim.PrioData})
	})
	s.Net.Run(sim.Second)
	if !done {
		t.Fatal("f0 packet not delivered")
	}
	if s.Bottlenecks[0].TxPackets != 1 || s.Bottlenecks[1].TxPackets != 1 {
		t.Errorf("f0 should cross both bottlenecks: btl0=%d btl1=%d",
			s.Bottlenecks[0].TxPackets, s.Bottlenecks[1].TxPackets)
	}
	// f1: S1 -> R1 crosses only bottleneck 0.
	got := false
	s.Receivers[1].Handler = func(pkt *netsim.Packet) { got = true }
	s.Net.Engine.Schedule(0, func() {
		s.Senders[1].Send(&netsim.Packet{Flow: 2, Type: netsim.Data, Size: netsim.MSS,
			Src: s.Senders[1].ID(), Dst: s.Receivers[1].ID(), Prio: netsim.PrioData})
	})
	s.Net.Run(2 * sim.Second)
	if !got {
		t.Fatal("f1 packet not delivered")
	}
	if s.Bottlenecks[0].TxPackets != 2 {
		t.Errorf("btl0 should carry f1: %d", s.Bottlenecks[0].TxPackets)
	}
	if s.Bottlenecks[1].TxPackets != 1 {
		t.Errorf("btl1 should not carry f1: %d", s.Bottlenecks[1].TxPackets)
	}
}

func TestFanSharedBottleneck(t *testing.T) {
	s := Fan(4).Build(Overlay{})
	CheckConnected(s.Net)
	if len(s.Senders) != 4 || len(s.Receivers) != 4 {
		t.Fatal("fan should have 4 pairs")
	}
	n := 0
	for i := range s.Receivers {
		s.Receivers[i].Handler = func(pkt *netsim.Packet) { n++ }
	}
	s.Net.Engine.Schedule(0, func() {
		for i := range s.Senders {
			s.Senders[i].Send(&netsim.Packet{Flow: netsim.FlowID(i), Type: netsim.Data, Size: netsim.MSS,
				Src: s.Senders[i].ID(), Dst: s.Receivers[i].ID(), Prio: netsim.PrioData})
		}
	})
	s.Net.Run(sim.Second)
	if n != 4 {
		t.Fatalf("delivered %d, want 4", n)
	}
	if s.Bottlenecks[0].TxPackets != 4 {
		t.Errorf("all flows must cross the shared bottleneck: %d", s.Bottlenecks[0].TxPackets)
	}
}

func TestTestbedDynamicIndependentBottlenecks(t *testing.T) {
	s := TestbedDynamic().Build(Overlay{})
	CheckConnected(s.Net)
	for i := range s.Receivers {
		s.Receivers[i].Handler = func(pkt *netsim.Packet) {}
	}
	s.Net.Engine.Schedule(0, func() {
		for i := range s.Senders {
			s.Senders[i].Send(&netsim.Packet{Flow: netsim.FlowID(i), Type: netsim.Data, Size: netsim.MSS,
				Src: s.Senders[i].ID(), Dst: s.Receivers[i].ID(), Prio: netsim.PrioData})
		}
	})
	s.Net.Run(sim.Second)
	if s.Bottlenecks[0].TxPackets != 2 || s.Bottlenecks[1].TxPackets != 2 {
		t.Errorf("each bottleneck should carry its 2 flows: %d, %d",
			s.Bottlenecks[0].TxPackets, s.Bottlenecks[1].TxPackets)
	}
}

func TestTestbedMultiBottleneckLayout(t *testing.T) {
	s := TestbedMultiBottleneck().Build(Overlay{})
	if s.Receivers[0] != s.Receivers[2] {
		t.Error("f1 and f3 must share a destination host (SRPT competition)")
	}
	counts := make(map[string]int)
	for i := range s.Receivers {
		r := s.Receivers[i]
		r.Handler = func(pkt *netsim.Packet) { counts[r.Name()]++ }
	}
	s.Net.Engine.Schedule(0, func() {
		for i := range s.Senders {
			s.Senders[i].Send(&netsim.Packet{Flow: netsim.FlowID(i + 1), Type: netsim.Data, Size: netsim.MSS,
				Src: s.Senders[i].ID(), Dst: s.Receivers[i].ID(), Prio: netsim.PrioData})
		}
	})
	s.Net.Run(sim.Second)
	// f1 crosses btlA+btlB+R0 downlink; f2 crosses btlA; f3 crosses
	// R0 downlink (and btlB); f4 crosses btlB.
	if got := s.Bottlenecks[0].TxPackets; got != 2 {
		t.Errorf("btlA packets = %d, want 2 (f1,f2)", got)
	}
	if got := s.Bottlenecks[1].TxPackets; got != 3 {
		t.Errorf("btlB packets = %d, want 3 (f1,f3,f4)", got)
	}
	if got := s.Bottlenecks[2].TxPackets; got != 2 {
		t.Errorf("R0 downlink packets = %d, want 2 (f1,f3)", got)
	}
	if counts["R0"] != 2 {
		t.Errorf("R0 received %d, want 2", counts["R0"])
	}
}

func TestFanNCustomPairs(t *testing.T) {
	s := Fan(8).Build(Overlay{})
	if len(s.Senders) != 8 || len(s.Receivers) != 8 {
		t.Error("Fan should honor the pair count")
	}
	CheckConnected(s.Net)
}

// TestSmallRoles: every small topology builds the host count it
// declares, and its roles name the hosts Sender and Receiver index —
// what a figure addresses its flows by before anything is built.
func TestSmallRoles(t *testing.T) {
	for _, c := range []Small{Chain(), Fan(1), Fan(4), TestbedDynamic(), TestbedMultiBottleneck()} {
		f := c.Build(Overlay{})
		if len(f.Hosts) != c.Hosts() {
			t.Errorf("%s: built %d hosts, declares %d", c.Canonical(), len(f.Hosts), c.Hosts())
		}
		if f.BaseRTT != 8*c.LinkDelay || f.AccessRate != c.Rate {
			t.Errorf("%s: rtt %v access %v", c.Canonical(), f.BaseRTT, f.AccessRate)
		}
		for i := range f.Senders {
			if s := f.Hosts[c.Sender(i)]; s != f.Senders[i] || s.Name() != fmt.Sprintf("S%d", i) {
				t.Errorf("%s: sender %d is host %s", c.Canonical(), i, s.Name())
			}
			if f.Hosts[c.Receiver(i)] != f.Receivers[i] || f.Receivers[i].Name()[0] != 'R' {
				t.Errorf("%s: receiver %d is host %s", c.Canonical(), i, f.Receivers[i].Name())
			}
		}
	}
}

func TestLeafSpineInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-leaf config did not panic")
		}
	}()
	leafSpine(LeafSpineConfig{Spines: 1, HostsPerLeaf: 1})
}

func TestPaperLeafSpineShape(t *testing.T) {
	cfg := PaperLeafSpine()
	if cfg.Leaves != 10 || cfg.Spines != 8 || cfg.HostsPerLeaf != 40 {
		t.Errorf("paper topology shape wrong: %+v", cfg)
	}
	if testing.Short() {
		t.Skip("skipping full-size build in -short mode")
	}
	ls := leafSpine(cfg)
	if len(ls.Hosts) != 400 {
		t.Errorf("paper topology hosts = %d, want 400", len(ls.Hosts))
	}
	CheckConnected(ls.Net)
}
