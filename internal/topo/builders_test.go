package topo

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"amrt/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/builders.golden")

// factoryLog hands out queue and marker factories that record which
// factory made each queue, the factory's call index, and the order of
// all queue calls across both factories — the order builders attach
// ports in, since every port takes a queue made just before it.
type factoryLog struct {
	queues  map[netsim.Queue]string
	seq     map[netsim.Queue]int
	markers map[netsim.DequeueMarker]int
	calls   int
}

func newFactoryLog() *factoryLog {
	return &factoryLog{
		queues:  map[netsim.Queue]string{},
		seq:     map[netsim.Queue]int{},
		markers: map[netsim.DequeueMarker]int{},
	}
}

func (l *factoryLog) factory(name string) netsim.QueueFactory {
	n := 0
	return func(s *netsim.Slabs) netsim.Queue {
		q := s.NewDropTail(64)
		l.queues[q] = fmt.Sprintf("%s#%d", name, n)
		l.seq[q] = l.calls
		n++
		l.calls++
		return q
	}
}

func (l *factoryLog) overlay() Overlay {
	return Overlay{
		HostQueue:   l.factory("host"),
		SwitchQueue: l.factory("switch"),
		Marker: func(s *netsim.Slabs) netsim.DequeueMarker {
			m := s.NewAntiECNMarker(1, netsim.CombineAND)
			l.markers[m] = len(l.markers)
			return m
		},
	}
}

// render writes every node, every port and every switch's routes of n.
// Ports of an instrumented build are listed in queue-call order; those
// of a bare build (no overlay) as host NICs, then switch ports.
func (l *factoryLog) render(b *strings.Builder, n *netsim.Network) {
	nodes := make([]netsim.Node, 0, len(n.Hosts())+len(n.Switches()))
	for _, h := range n.Hosts() {
		nodes = append(nodes, h)
	}
	for _, s := range n.Switches() {
		nodes = append(nodes, s)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	for _, nd := range nodes {
		kind := "switch"
		if _, ok := nd.(*netsim.Host); ok {
			kind = "host"
		}
		fmt.Fprintf(b, "node %d %s %s\n", nd.ID(), kind, nd.Name())
	}

	var ports []*netsim.Port
	for _, h := range n.Hosts() {
		if h.NIC() != nil {
			ports = append(ports, h.NIC())
		}
	}
	for _, s := range n.Switches() {
		ports = append(ports, s.Ports()...)
	}
	sort.SliceStable(ports, func(i, j int) bool { return l.seq[ports[i].Queue()] < l.seq[ports[j].Queue()] })
	for _, p := range ports {
		q, ok := l.queues[p.Queue()]
		if !ok {
			q = fmt.Sprintf("bare:%T/%d", p.Queue(), p.Queue().(netsim.BoundedQueue).CapPackets())
		}
		mark := "-"
		if p.Marker != nil {
			mark = "marked"
			if i, ok := l.markers[p.Marker]; ok {
				mark = fmt.Sprintf("marker#%d", i)
			}
		}
		fmt.Fprintf(b, "port %s -> %s rate=%d delay=%d q=%s %s\n",
			p.Owner().Name(), p.Link().To.Name(), int64(p.Link().Rate), int64(p.Link().Delay), q, mark)
	}

	for _, s := range n.Switches() {
		for _, h := range n.Hosts() {
			names := make([]string, 0, 4)
			for _, p := range s.Routes(h.ID()) {
				names = append(names, p.Name())
			}
			fmt.Fprintf(b, "route %s %s: %s\n", s.Name(), h.Name(), strings.Join(names, " "))
		}
	}
}

func renderFabric(b *strings.Builder, l *factoryLog, f *Fabric) {
	fmt.Fprintf(b, "access=%d rtt=%d\n", int64(f.AccessRate), int64(f.BaseRTT))
	for i, h := range f.Hosts {
		fmt.Fprintf(b, "host[%d] %s downlink %s\n", i, h.Name(), f.HostDownlinks[i].Name())
	}
	for i, s := range f.Switches {
		fmt.Fprintf(b, "switch[%d] %s\n", i, s.Name())
	}
	l.render(b, f.Net)
}

// renderSmall writes a small topology's fabric header, then its roles.
func renderSmall(b *strings.Builder, l *factoryLog, f *Fabric) {
	fmt.Fprintf(b, "access=%d rtt=%d\n", int64(f.AccessRate), int64(f.BaseRTT))
	for i, h := range f.Hosts {
		fmt.Fprintf(b, "host[%d] %s downlink %s\n", i, h.Name(), f.HostDownlinks[i].Name())
	}
	list := func(label string, names []string) {
		fmt.Fprintf(b, "%s: %s\n", label, strings.Join(names, " "))
	}
	var names []string
	for _, h := range f.Senders {
		names = append(names, h.Name())
	}
	list("senders", names)
	names = names[:0]
	for _, h := range f.Receivers {
		names = append(names, h.Name())
	}
	list("receivers", names)
	names = names[:0]
	for _, sw := range f.Switches {
		names = append(names, sw.Name())
	}
	list("switches", names)
	names = names[:0]
	for _, p := range f.Bottlenecks {
		names = append(names, p.Name())
	}
	list("bottlenecks", names)
	l.render(b, f.Net)
}

// TestBuildersGolden pins how every builder lays a topology down: node
// creation order, each port's link, which queue factory made its queue
// and at which call, which ports carry a marker, and the ECMP routes.
// The fault plan seeds the k-th switch queue from k, so the call order
// is part of the simulation's bytes. Record with -update.
func TestBuildersGolden(t *testing.T) {
	small := DefaultLeafSpine()
	small.Leaves, small.Spines, small.HostsPerLeaf = 2, 1, 2
	fabrics := []struct {
		name string
		b    Builder
		bare bool
	}{
		{"leafspine default", DefaultLeafSpine(), false},
		{"leafspine 2x1x2", small, false},
		{"leafspine 2x1x2 bare", small, true},
		{"fattree k=4", DefaultFatTree(), false},
		{"clos default", DefaultClos(), false},
	}
	smalls := []struct {
		name string
		b    Small
		bare bool
	}{
		{"chain", Chain(), false},
		{"fan", Fan(4), false},
		{"fan bare", Fan(4), true},
		{"fanN 2", Fan(2), false},
		{"testbed dynamic", TestbedDynamic(), false},
		{"testbed multi-bottleneck", TestbedMultiBottleneck(), false},
	}

	var b strings.Builder
	for _, c := range fabrics {
		l := newFactoryLog()
		ov := l.overlay()
		if c.bare {
			ov = Overlay{}
		}
		fmt.Fprintf(&b, "== %s\n", c.name)
		renderFabric(&b, l, c.b.Build(ov))
	}
	for _, c := range smalls {
		l := newFactoryLog()
		ov := l.overlay()
		if c.bare {
			ov = Overlay{}
		}
		fmt.Fprintf(&b, "== %s\n", c.name)
		renderSmall(&b, l, c.b.Build(ov))
	}

	path := filepath.Join("testdata", "builders.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("builders.golden line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("builders.golden: got %d lines, want %d", len(gl), len(wl))
	}
}
