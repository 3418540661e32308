package sird

import (
	"slices"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

const rtt = 100 * sim.Microsecond

// newFan builds n sender/receiver pairs across one bottleneck with
// SIRD's queues and a SIRD instance on it.
func newFan(pairs int) (*topo.Fabric, *Protocol) {
	cfg := DefaultConfig()
	s := topo.Fan(pairs).Build(topo.Overlay{SwitchQueue: SwitchQueue, HostQueue: HostQueue})
	cfg.RTT = rtt
	return s, New(s.Net, cfg)
}

// TestPoolBoundHoldsAcrossIncast: eight senders converge on one
// receiver; at every delivery and every microsecond in between, the
// receiver's outstanding credit stays within [0, bound], and the bound
// is the documented 1.5 × BDP.
func TestPoolBoundHoldsAcrossIncast(t *testing.T) {
	s, p := newFan(8)
	var flows []*transport.Flow
	for i, src := range s.Senders {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), src, s.Receivers[0], 400_000, 0))
	}
	var peak int64
	check := func() {
		out, bound := p.CreditLedger()
		if out < 0 || out > bound {
			t.Fatalf("at %v: outstanding credit %d outside [0, %d]", p.Now(), out, bound)
		}
		peak = max(peak, out)
	}
	p.Cfg.OnData = func(*transport.Flow, *netsim.Packet) { check() }
	var tick func()
	tick = func() {
		check()
		if !flows[len(flows)-1].Done {
			p.Engine().Schedule(sim.Microsecond, tick)
		}
	}
	p.Engine().Schedule(sim.Microsecond, tick)
	s.Net.Run(sim.Second)
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete", f)
		}
	}
	_, bound := p.CreditLedger()
	if want := s.Receivers[0].LinkRate().BytesIn(rtt) * 3 / 2; bound != want {
		t.Errorf("pool bound %d, want 1.5 × BDP = %d", bound, want)
	}
	if peak < bound/2 {
		t.Errorf("outstanding credit peaked at %d of %d: the incast never loaded the pool", peak, bound)
	}
	if out, _ := p.CreditLedger(); out != 0 {
		t.Errorf("%d bytes of credit still outstanding after every flow finished", out)
	}
}

// rtsTap records, on a sender's NIC, the demand each departing RTS
// carries beside the sender's actual backlog at that instant, read off
// the flow's send cursor.
type rtsTap struct {
	p             *Protocol
	carried, owed []int64
}

func (tap *rtsTap) OnDequeue(_ *netsim.Port, pkt *netsim.Packet, _ sim.Time) {
	if pkt.Type == netsim.RTS {
		tap.carried = append(tap.carried, pkt.Demand)
		f := tap.p.Flow(pkt.Flow)
		tap.owed = append(tap.owed, f.Size-int64(f.SendNext)*netsim.MSS)
	}
}

// TestEveryRTSCarriesDemand: every RTS — the first and, through the
// kernel's StampRTS hook, each re-announced one — advertises the bytes
// not yet handed to the NIC. The bottleneck is down for the first 2
// RTTs, so the first RTS and the blind window are lost and each sender
// announces again at 3×RTT.
func TestEveryRTSCarriesDemand(t *testing.T) {
	s, p := newFan(2)
	const size = 100_000
	live := p.AddFlow(1, s.Senders[0], s.Receivers[0], size, 0)
	mute := p.AddUnresponsiveFlow(2, s.Senders[1], s.Receivers[1], size, 0)
	taps := []*rtsTap{{p: p}, {p: p}}
	for i, tap := range taps {
		s.Senders[i].NIC().Marker = tap
	}
	s.Bottlenecks[0].SetAdminDown(true)
	p.Engine().Schedule(2*rtt, func() { s.Bottlenecks[0].SetAdminDown(false) })
	s.Net.Run(sim.Second)

	blind := int64(p.BlindPkts(live)) * netsim.MSS
	for i, want := range [][]int64{{size, size - blind}, {size, size}} {
		if !slices.Equal(taps[i].carried, want) || !slices.Equal(taps[i].carried, taps[i].owed) {
			t.Errorf("flow %d: RTS demands %v, sender backlog %v, want both %v", i+1, taps[i].carried, taps[i].owed, want)
		}
	}
	if p.RTSReannounces != 2 {
		t.Errorf("RTSReannounces = %d, want one per flow", p.RTSReannounces)
	}
	if !live.Done || mute.Done {
		t.Errorf("done: responsive %v, unresponsive %v; want true, false", live.Done, mute.Done)
	}
}

// TestUnresponsiveCreditReclaimed: a sender that announces but never
// sends draws a few grants' worth of credit; the timeout path takes it
// back and the responsive flows sharing the pool still finish.
func TestUnresponsiveCreditReclaimed(t *testing.T) {
	s, p := newFan(3)
	dst := s.Receivers[0]
	mute := p.AddUnresponsiveFlow(1, s.Senders[0], dst, 2_000_000, 0)
	a := p.AddFlow(2, s.Senders[1], dst, 600_000, 0)
	b := p.AddFlow(3, s.Senders[2], dst, 600_000, 0)
	s.Net.Run(20 * sim.Millisecond)
	if !a.Done || !b.Done {
		t.Fatalf("responsive flows done = %v, %v beside an unresponsive one", a.Done, b.Done)
	}
	if mute.Done {
		t.Error("unresponsive flow completed")
	}
	if p.PoolReclaims == 0 {
		t.Error("PoolReclaims = 0: the silent flow's charged credit was never taken back")
	}
	if r := p.receivers.Get(mute.ID); r == nil {
		t.Error("silent flow lost its receiver state")
	} else if r.charged > int64(silenceEvidence*netsim.MSS) {
		t.Errorf("silent flow still holds %d bytes of credit", r.charged)
	}
}

// members lists ps's member flows in order.
func members(ps *poolState) []*rcvFlow {
	var out []*rcvFlow
	for r := ps.flows.Front(); r != nil; r = ps.flows.Next(r) {
		out = append(out, r)
	}
	return out
}

// TestSenderCrashReturnsCredit: when a sender dies mid-transfer, the
// credit charged to its flow goes back to the pool at once — the ledger
// drops to exactly what the surviving flows hold — and the survivors
// finish with nothing left outstanding.
func TestSenderCrashReturnsCredit(t *testing.T) {
	s, p := newFan(3)
	dst := s.Receivers[0]
	var flows []*transport.Flow
	for i, src := range s.Senders {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), src, dst, 1_000_000, 0))
	}
	s.Net.Run(5 * rtt)
	ps := p.pools.Get(dst.ID())
	held := func() (sum int64) {
		for _, r := range members(ps) {
			sum += r.charged
		}
		return sum
	}
	doomed := p.receivers.Get(flows[0].ID)
	if doomed.charged == 0 || ps.outstanding != held() {
		t.Fatalf("before the crash: doomed flow holds %d, pool %d vs members %d", doomed.charged, ps.outstanding, held())
	}
	survivors := held() - doomed.charged

	p.OnHostCrash(s.Senders[0])

	if out, _ := p.CreditLedger(); out != survivors {
		t.Errorf("outstanding credit %d after the crash, want the survivors' %d", out, survivors)
	}
	if slices.Contains(members(ps), doomed) || p.receivers.Get(flows[0].ID) != nil || p.Sender(flows[0].ID) != nil {
		t.Error("crashed sender's flow still has pool membership, receiver or sender state")
	}
	if flows[0].Outcome != transport.OutcomeKilledByCrash {
		t.Errorf("crashed sender's flow outcome %v", flows[0].Outcome)
	}
	s.Net.Run(sim.Second)
	if !flows[1].Done || !flows[2].Done {
		t.Error("surviving flows did not finish")
	}
	if out, _ := p.CreditLedger(); out != 0 {
		t.Errorf("%d bytes outstanding after the survivors finished", out)
	}
}

// TestRecoveryAllocs: once warm, a full loss-recovery cycle allocates
// nothing. Each cycle takes a receiver record whose flow lost its whole
// unscheduled window: the timeout queues a resend request per hole on
// the host pool's recovery queue, the pacer sends them, the
// retransmissions arrive, and the record ends with the flow. The
// queue's blocks and the reissue times' chunks go back to the
// instance's pools, and the next cycle reuses them.
func TestRecoveryAllocs(t *testing.T) {
	s, p := newFan(1)
	const runs, pkts = 50, 20
	var recs []*rcvFlow
	for id := netsim.FlowID(1); id <= runs+1; id++ { // AllocsPerRun warms up with one more
		f := p.AddPending(id, s.Senders[0], s.Receivers[0], pkts*netsim.MSS, false)
		p.Adopt(f)
		// As if the unscheduled window had been sent and every packet lost.
		f.SenderStarted, f.SendNext = true, f.NPkts
		r := transport.Receiver(&p.Kernel, &p.receivers, id, p.newRcvFlow)
		r.timer.Cancel() // armed by its cycle
		recs = append(recs, r)
	}
	s.Net.Run(p.Now() + 10*rtt) // the records' Heard signals
	next, unfinished := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := recs[next]
		next++
		r.timer.Arm()
		s.Net.Run(p.Now() + 40*rtt)
		if !r.f.Done {
			unfinished++
		}
	})
	if unfinished > 0 {
		t.Fatalf("%d of %d flows did not recover", unfinished, runs+1)
	}
	if want := int64(runs+1) * pkts; p.ResendGrants != want {
		t.Errorf("%d resend grants, want one per lost packet, %d", p.ResendGrants, want)
	}
	if allocs != 0 {
		t.Errorf("a recovery cycle: %.1f allocs, want 0", allocs)
	}
}
