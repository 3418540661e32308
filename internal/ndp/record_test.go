package ndp

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/transport"
)

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
	s, p := newFan(1)
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
