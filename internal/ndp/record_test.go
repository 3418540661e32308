package ndp

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// newQuietFan is a one-pair fan with NDP and no collector, so a flow's
// completion appends to nothing.
func newQuietFan() (*topo.Fabric, *Protocol) {
	var cfg transport.Config
	s := topo.Fan(1).Build(topo.Overlay{SwitchQueue: SwitchQueue, HostQueue: HostQueue})
	cfg.RTT = 100 * sim.Microsecond
	return s, New(s.Net, cfg)
}

// TestReceiverAllocs: once warm, a receiver record's whole life — built
// by the RTS, filled by the data, ended at Complete — and the next
// flow's build allocate nothing: the next flow gets the ended record
// back, bitmap array included. The flows are 100 packets, so the bitmap
// needs an array. Before records came from the pool, a life cost 2
// allocations: the record and its bitmap array.
func TestReceiverAllocs(t *testing.T) {
	s, p := newQuietFan()
	const runs = 50
	var flows []*transport.Flow
	for id := netsim.FlowID(1); id <= runs+1; id++ { // AllocsPerRun warms up with one more
		f := p.AddPending(id, s.Senders[0], s.Receivers[0], 100*netsim.MSS, false)
		p.Adopt(f)
		flows = append(flows, f)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f := flows[next]
		next++
		p.Release(f, p.Now())
		s.Net.Run(p.Now() + 20*p.Cfg.RTT)
		if !f.Done {
			t.Fatalf("%v did not complete", f)
		}
	})
	if allocs != 0 {
		t.Errorf("a receiver record's life: %.1f allocs, want 0", allocs)
	}
	if p.receivers.Len() != 0 {
		t.Errorf("%d receiver records outlive their flows", p.receivers.Len())
	}
}

// stalePull is what flow B's record and the instance look like once the
// pull pacer has passed the pulls queued for a record that ended.
type stalePull struct {
	rcvd, pullBudget int32
	pullsSent        int64
	events           uint64
}

// runStalePull: all of flow A's 100 packets (never sent) arrive by hand
// at time 0; past the blind window each asks for a pull, so A completes
// with its whole pull budget queued on the pacer, unsent. Flow B's
// record is built at the same instant: after A completes, when it is
// A's old record, or else just before, when it is a fresh one. Half an
// RTT later the pacer has passed every queued pull.
func runStalePull(t *testing.T, reuse bool) stalePull {
	s, p := newQuietFan()
	var fs [2]*transport.Flow
	for i := range fs {
		fs[i] = p.AddPending(netsim.FlowID(i+1), s.Senders[0], s.Receivers[0], 100*netsim.MSS, false)
		p.Adopt(fs[i])
	}
	fa, fb := fs[0], fs[1]
	a := transport.Receiver(&p.Kernel, &p.receivers, fa.ID, p.newRcvFlow)
	budget := a.pullBudget
	if budget <= 0 {
		t.Fatalf("A's pull budget is %d: the blind window covers the flow", budget)
	}
	var b *rcvFlow
	if !reuse {
		b = transport.Receiver(&p.Kernel, &p.receivers, fb.ID, p.newRcvFlow)
	}
	for seq := int32(0); seq < fa.NPkts; seq++ {
		fa.Dst.Receive(p.NewData(fa, seq, netsim.PrioData))
	}
	if !fa.Done || p.pullerOf(fa.Dst).queue.Len() != int(budget) {
		t.Fatalf("A done %v with %d pulls queued, want done with %d", fa.Done, p.pullerOf(fa.Dst).queue.Len(), budget)
	}
	if reuse {
		b = transport.Receiver(&p.Kernel, &p.receivers, fb.ID, p.newRcvFlow)
	}
	if (b == a) != reuse {
		t.Fatalf("reuse %v, but B's record is A's: %v", reuse, b == a)
	}
	s.Net.Run(p.Cfg.RTT / 2)
	return stalePull{b.rcvd.Count(), b.pullBudget, p.PullsSent, s.Net.Engine.Executed}
}

// TestStalePull: a queued pull names its flow, not the receiver record,
// so the pulls of a flow that completed are skipped also when another
// flow has its record: B ends up exactly as it does with a fresh
// record, and no pull is sent.
func TestStalePull(t *testing.T) {
	fresh, reused := runStalePull(t, false), runStalePull(t, true)
	if reused != fresh {
		t.Errorf("B with A's record: %+v; with a fresh one: %+v", reused, fresh)
	}
	if fresh.pullsSent != 0 {
		t.Errorf("fresh record: %+v; want no pull sent", fresh)
	}
}
