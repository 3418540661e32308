package faults

import (
	"strings"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

func TestParseFullSpec(t *testing.T) {
	spec := "link=leaf0->spine1,down=5ms,up=8ms,period=20ms; " +
		"degrade=swA->swB,at=1ms,until=2ms,factor=0.25; " +
		"ctrl-loss=0.01; data-loss=0.02; " +
		"burst-loss=tobad:0.005,togood:0.25,bad:0.5,good:0.001; seed=42"
	p := MustParse(spec)
	if len(p.Flaps) != 1 {
		t.Fatalf("flaps = %d, want 1", len(p.Flaps))
	}
	f := p.Flaps[0]
	if f.Link != "leaf0->spine1" || f.DownAt != 5*sim.Millisecond ||
		f.UpAt != 8*sim.Millisecond || f.Period != 20*sim.Millisecond {
		t.Errorf("flap = %+v", f)
	}
	if len(p.Degrades) != 1 {
		t.Fatalf("degrades = %d, want 1", len(p.Degrades))
	}
	d := p.Degrades[0]
	if d.Link != "swA->swB" || d.At != sim.Millisecond || d.Until != 2*sim.Millisecond || d.Factor != 0.25 {
		t.Errorf("degrade = %+v", d)
	}
	if p.CtrlLoss != 0.01 || p.DataLoss != 0.02 {
		t.Errorf("loss = %v/%v", p.CtrlLoss, p.DataLoss)
	}
	if p.Burst == nil || *p.Burst != (BurstLoss{ToBad: 0.005, ToGood: 0.25, LossBad: 0.5, LossGood: 0.001}) {
		t.Errorf("burst = %+v", p.Burst)
	}
	if p.Seed != 42 {
		t.Errorf("seed = %d, want 42", p.Seed)
	}
	if p.Empty() {
		t.Error("full plan reported Empty")
	}
}

func TestParseNodeFaultRoundTrip(t *testing.T) {
	spec := "crash=h0.3,at=10ms,up=12ms; reboot=leaf1,at=5ms,up=6ms; rehash=25ms; rehash=50ms"
	p := MustParse(spec)
	if len(p.Crashes) != 1 || p.Crashes[0] != (NodeCrash{Node: "h0.3", At: 10 * sim.Millisecond, Up: 12 * sim.Millisecond}) {
		t.Errorf("crashes = %+v", p.Crashes)
	}
	if len(p.Reboots) != 1 || p.Reboots[0] != (SwitchReboot{Node: "leaf1", At: 5 * sim.Millisecond, Up: 6 * sim.Millisecond}) {
		t.Errorf("reboots = %+v", p.Reboots)
	}
	if len(p.Rehashes) != 2 || p.Rehashes[0].At != 25*sim.Millisecond || p.Rehashes[1].At != 50*sim.Millisecond {
		t.Errorf("rehashes = %+v", p.Rehashes)
	}
	if p.Empty() {
		t.Error("node-fault plan reported Empty")
	}
}

func TestParseRejectsDuplicatesAndOverlaps(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"link=a->b,down=1ms,up=2ms;link=a->b,down=5ms,up=6ms", "duplicate link clause"},
		{"link=a->b,down=1ms,up=2ms;link=b->a,down=5ms,up=6ms", "duplicate link clause"},
		{"degrade=a->b,at=1ms,until=3ms,factor=0.5;degrade=a->b,at=2ms,until=4ms,factor=0.25", "windows overlap"},
		{"degrade=a->b,at=1ms,until=3ms,factor=0.5;degrade=b->a,at=0ms,until=2ms,factor=0.25", "windows overlap"},
		{"crash=h3,at=1ms,up=2ms;crash=h3,at=5ms,up=6ms", "duplicate crash clause"},
		{"reboot=leaf1,at=1ms,up=2ms;reboot=leaf1,at=5ms,up=6ms", "duplicate reboot clause"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want substring %q", c.spec, err, c.want)
		}
	}
	// Disjoint degrade windows on one link and flaps on distinct links
	// stay legal.
	for _, spec := range []string{
		"degrade=a->b,at=1ms,until=2ms,factor=0.5;degrade=a->b,at=2ms,until=3ms,factor=0.25",
		"link=a->b,down=1ms,up=2ms;link=a->c,down=1ms,up=2ms",
		"crash=h3,at=1ms,up=2ms;crash=h4,at=1ms,up=2ms",
		"reboot=leaf1,at=1ms,up=2ms;reboot=spine1,at=1ms,up=2ms",
	} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", spec, err)
		}
	}
}

func TestParseEmptyAndEmptyPlan(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !p.Empty() {
			t.Errorf("Parse(%q) not empty: %+v", spec, p)
		}
	}
	if !(*Plan)(nil).Empty() {
		t.Error("nil plan must be Empty")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"bogus=1", "unknown fault class"},
		{"link=a->b,down=5ms", "both down= and up="},
		{"link=a->b,down=5ms,up=3ms", "must be after"},
		{"link=a->b,down=1ms,up=3ms,period=2ms", "must exceed the down window"},
		{"link=a->b,down=1ms,up=3ms,frequency=2ms", "unknown key"},
		{"link=,down=1ms,up=3ms", "empty link name"},
		{"link=a->b,down=junk,up=3ms", "down="},
		{"ctrl-loss=1.5", "outside"},
		{"ctrl-loss=-0.1", "outside"},
		{"data-loss=x", "data-loss"},
		{"degrade=a->b,at=1ms,factor=0.5", "all required"},
		{"degrade=a->b,at=1ms,until=2ms,factor=1.5", "outside (0,1)"},
		{"degrade=a->b,at=2ms,until=1ms,factor=0.5", "must be after"},
		{"burst-loss=tobad:0.01", "all required"},
		{"burst-loss=tobad:0.01,togood:0,bad:0.5", "togood must be positive"},
		{"burst-loss=tobad:0.01,togood:0.2,bad:0.5,worse:0.5", "unknown key"},
		{"burst-loss=tobad", "want key:value"},
		{"seed=notanint", "invalid syntax"},
		{"crash=,at=1ms,up=2ms", "empty node name"},
		{"crash=h3,at=1ms", "both at= and up="},
		{"crash=h3,at=2ms,up=1ms", "must be after"},
		{"crash=h3,at=1ms,up=2ms,boom=3ms", "unknown key"},
		{"reboot=leaf1,up=2ms", "both at= and up="},
		{"rehash=notadur", "rehash"},
		{"rehash=1ms,at=2ms", "single time"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q): no error, want %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want substring %q", c.spec, err, c.want)
		}
	}
}

// flapNet is host A — switch S — host B; port names are "A->S", "S->A",
// "S->B", "B->S".
func flapNet(t *testing.T) (*netsim.Network, *netsim.Host, *netsim.Host, *netsim.Switch) {
	t.Helper()
	n := netsim.New()
	a := n.NewHost("A")
	b := n.NewHost("B")
	sw := n.NewSwitch("S")
	q := func() netsim.Queue { return netsim.NewDropTail(1024) }
	n.Connect(a, sw, 10*sim.Gbps, sim.Microsecond, q(), q())
	n.Connect(b, sw, 10*sim.Gbps, sim.Microsecond, q(), q())
	sw.AddRoute(a.ID(), sw.Ports()[0])
	sw.AddRoute(b.ID(), sw.Ports()[1])
	return n, a, b, sw
}

func TestApplyUnknownLink(t *testing.T) {
	n, _, _, _ := flapNet(t)
	p := MustParse("link=S->Z,down=1ms,up=2ms")
	err := p.Apply(n, sim.Second)
	if err == nil || !strings.Contains(err.Error(), `unknown link "S->Z"`) {
		t.Fatalf("Apply = %v, want unknown link error", err)
	}
}

func TestApplyPeriodicFlapCounts(t *testing.T) {
	n, _, _, sw := flapNet(t)
	// down at 1ms for 1ms, every 3ms, over a 10ms horizon:
	// cycles start at 1,4,7,10ms → 4 down events, 4 up events.
	p := MustParse("link=S->B,down=1ms,up=2ms,period=3ms")
	if err := p.Apply(n, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Run(12 * sim.Millisecond)
	if p.LinkDownEvents != 4 || p.LinkUpEvents != 4 {
		t.Errorf("events = %d down / %d up, want 4/4", p.LinkDownEvents, p.LinkUpEvents)
	}
	if sw.Ports()[1].AdminDown() {
		t.Error("port still down after the last up event")
	}
}

func TestApplyResolvesReverseDirection(t *testing.T) {
	n, _, b, sw := flapNet(t)
	// Naming the host-side direction must also take the switch-side
	// reverse port down: a cable failure kills both directions.
	p := MustParse("link=B->S,down=0ms,up=1ms")
	if err := p.Apply(n, sim.Second); err != nil {
		t.Fatal(err)
	}
	n.Run(sim.Microsecond)
	if !b.NIC().AdminDown() {
		t.Error("named direction B->S not down")
	}
	if !sw.Ports()[1].AdminDown() {
		t.Error("reverse direction S->B not down")
	}
	n.Run(2 * sim.Millisecond)
	if b.NIC().AdminDown() || sw.Ports()[1].AdminDown() {
		t.Error("link did not come back up")
	}
}

func TestApplyDegradeWindow(t *testing.T) {
	n, _, _, sw := flapNet(t)
	p := MustParse("degrade=S->B,at=1ms,until=2ms,factor=0.1")
	if err := p.Apply(n, sim.Second); err != nil {
		t.Fatal(err)
	}
	egress := sw.Ports()[1]
	nominal := egress.EffectiveRate()
	n.Run(1500 * sim.Microsecond)
	if got, want := egress.EffectiveRate(), sim.Rate(float64(nominal)*0.1); got != want {
		t.Errorf("degraded rate = %v, want %v", got, want)
	}
	n.Run(3 * sim.Millisecond)
	if egress.EffectiveRate() != nominal {
		t.Errorf("rate not restored: %v != %v", egress.EffectiveRate(), nominal)
	}
	if p.DegradeEvents != 1 {
		t.Errorf("DegradeEvents = %d, want 1", p.DegradeEvents)
	}
}

func TestApplyPeriodicFlapCycleCap(t *testing.T) {
	n, _, _, _ := flapNet(t)
	p := MustParse("link=S->B,down=0ms,up=1us,period=2us")
	err := p.Apply(n, sim.Forever)
	if err == nil || !strings.Contains(err.Error(), "flap cycles") {
		t.Fatalf("Apply = %v, want flap-cycle cap error", err)
	}
}

func TestApplyCrashParksLinkAndFiresHooks(t *testing.T) {
	n, _, b, sw := flapNet(t)
	p := MustParse("crash=B,at=1ms,up=2ms")
	var crashed, restarted []string
	p.CrashHook = func(_ *netsim.Shard, h *netsim.Host) { crashed = append(crashed, h.Name()) }
	p.RestartHook = func(_ *netsim.Shard, h *netsim.Host) { restarted = append(restarted, h.Name()) }
	if err := p.Apply(n, sim.Second); err != nil {
		t.Fatal(err)
	}
	n.Run(1500 * sim.Microsecond)
	if !b.NIC().AdminDown() || !sw.Ports()[1].AdminDown() {
		t.Error("crashed host's access link not parked in both directions")
	}
	if len(crashed) != 1 || crashed[0] != "B" {
		t.Errorf("CrashHook calls = %v, want [B]", crashed)
	}
	n.Run(3 * sim.Millisecond)
	if b.NIC().AdminDown() || sw.Ports()[1].AdminDown() {
		t.Error("access link still parked after restart")
	}
	if len(restarted) != 1 || restarted[0] != "B" {
		t.Errorf("RestartHook calls = %v, want [B]", restarted)
	}
	if p.CrashEvents != 1 {
		t.Errorf("CrashEvents = %d, want 1", p.CrashEvents)
	}
}

func TestApplyCrashFlushesNICQueue(t *testing.T) {
	n, a, b, _ := flapNet(t)
	// Park A's NIC manually, pile packets into it, then crash A: the
	// parked packets must be flushed and counted as drops.
	a.NIC().SetAdminDown(true)
	for i := 0; i < 5; i++ {
		pkt := netsim.NewPacket()
		pkt.Type, pkt.Size, pkt.Src, pkt.Dst = netsim.Data, netsim.MSS, a.ID(), b.ID()
		a.Send(pkt)
	}
	if a.NIC().Queue().Len() != 5 {
		t.Fatalf("parked NIC queue = %d, want 5", a.NIC().Queue().Len())
	}
	p := MustParse("crash=A,at=1ms,up=2ms")
	if err := p.Apply(n, sim.Second); err != nil {
		t.Fatal(err)
	}
	n.Run(1500 * sim.Microsecond)
	if got := a.NIC().Queue().Len(); got != 0 {
		t.Errorf("NIC queue after crash = %d, want 0", got)
	}
	if a.NIC().Flushed != 5 {
		t.Errorf("Flushed = %d, want 5", a.NIC().Flushed)
	}
	if n.Dropped() != 5 {
		t.Errorf("network Dropped = %d, want 5", n.Dropped())
	}
}

func TestApplyRebootFlushesAndParksSwitch(t *testing.T) {
	n, _, _, sw := flapNet(t)
	p := MustParse("reboot=S,at=1ms,up=2ms")
	if err := p.Apply(n, sim.Second); err != nil {
		t.Fatal(err)
	}
	n.Run(1500 * sim.Microsecond)
	for _, pt := range sw.Ports() {
		if !pt.AdminDown() {
			t.Errorf("port %s not parked during reboot", pt.Name())
		}
	}
	n.Run(3 * sim.Millisecond)
	for _, pt := range sw.Ports() {
		if pt.AdminDown() {
			t.Errorf("port %s still parked after reboot", pt.Name())
		}
	}
	if p.RebootEvents != 1 {
		t.Errorf("RebootEvents = %d, want 1", p.RebootEvents)
	}
}

func TestApplyRehashRotatesSaltDeterministically(t *testing.T) {
	salts := func() []uint64 {
		n, _, _, _ := flapNet(t)
		p := MustParse("rehash=1ms;rehash=2ms;seed=7")
		if err := p.Apply(n, sim.Second); err != nil {
			t.Fatal(err)
		}
		var out []uint64
		out = append(out, n.ECMPSalt())
		n.Run(1500 * sim.Microsecond)
		out = append(out, n.ECMPSalt())
		n.Run(3 * sim.Millisecond)
		out = append(out, n.ECMPSalt())
		if p.RehashEvents != 2 {
			t.Fatalf("RehashEvents = %d, want 2", p.RehashEvents)
		}
		return out
	}
	a, b := salts(), salts()
	if a[0] != 0 {
		t.Errorf("initial salt = %d, want 0", a[0])
	}
	if a[1] == 0 || a[2] == 0 || a[1] == a[2] {
		t.Errorf("rehash salts = %v, want two distinct non-zero salts", a[1:])
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("salt %d differs across identical plans: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestApplyUnknownNode(t *testing.T) {
	n, _, _, _ := flapNet(t)
	if err := MustParse("crash=Z,at=1ms,up=2ms").Apply(n, sim.Second); err == nil ||
		!strings.Contains(err.Error(), `unknown host "Z"`) {
		t.Errorf("crash Apply = %v, want unknown host error", err)
	}
	if err := MustParse("reboot=Z,at=1ms,up=2ms").Apply(n, sim.Second); err == nil ||
		!strings.Contains(err.Error(), `unknown switch "Z"`) {
		t.Errorf("reboot Apply = %v, want unknown switch error", err)
	}
}

func TestWrapQueuesIdentityAndLayering(t *testing.T) {
	inner := func(s *netsim.Slabs) netsim.Queue { return s.NewDropTail(8) }

	// A plan with only link faults must return the factory's queues
	// unwrapped — no spurious RNG in the data path.
	noLoss := MustParse("link=a->b,down=1ms,up=2ms")
	if _, ok := noLoss.WrapQueues(inner)(nil).(*netsim.DropTailQueue); !ok {
		t.Error("loss-free plan wrapped the queue")
	}

	// Ctrl loss alone wraps in a LossyQueue carrying CtrlDropProb.
	ctrl := MustParse("ctrl-loss=0.25")
	lq, ok := ctrl.WrapQueues(inner)(nil).(*netsim.LossyQueue)
	if !ok {
		t.Fatal("ctrl-loss plan did not produce a LossyQueue")
	}
	if lq.CtrlDropProb != 0.25 || lq.DropProb != 0 {
		t.Errorf("probs = ctrl %v / data %v", lq.CtrlDropProb, lq.DropProb)
	}

	// Burst + loss compose: Lossy outermost, GE inside it.
	both := MustParse("burst-loss=tobad:0.01,togood:0.25,bad:0.5;data-loss=0.02")
	outer, ok := both.WrapQueues(inner)(nil).(*netsim.LossyQueue)
	if !ok {
		t.Fatal("composed plan: outermost not LossyQueue")
	}
	if _, ok := outer.Inner.(*netsim.GilbertElliottQueue); !ok {
		t.Fatal("composed plan: GE layer missing under the loss layer")
	}
}

func TestWrapQueuesDeterministicPerQueueStreams(t *testing.T) {
	drops := func(plan *Plan) []int64 {
		f := plan.WrapQueues(func(s *netsim.Slabs) netsim.Queue { return s.NewDropTail(0) })
		slabs := netsim.NewSlabs(3)
		var out []int64
		for q := 0; q < 3; q++ {
			lq := f(slabs).(*netsim.LossyQueue)
			for i := 0; i < 1000; i++ {
				lq.Enqueue(&netsim.Packet{Type: netsim.Data, Size: netsim.MSS}, 0)
			}
			out = append(out, lq.Injected)
		}
		return out
	}
	a := drops(MustParse("data-loss=0.1;seed=9"))
	b := drops(MustParse("data-loss=0.1;seed=9"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("queue %d diverged across identical plans: %d vs %d", i, a[i], b[i])
		}
	}
	if a[0] == a[1] && a[1] == a[2] {
		t.Error("per-queue sub-seeding produced identical streams for all queues")
	}
}
