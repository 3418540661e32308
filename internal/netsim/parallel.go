package netsim

import (
	"fmt"
	"sync"

	"amrt/internal/sim"
)

// This file is the sharded (conservative parallel discrete-event) run
// loop: time-window synchronization with the global minimum link
// propagation delay as lookahead, cross-shard deliveries exchanged
// through per-shard-pair outboxes at barriers, and deterministically
// keyed event ordering so the result is byte-identical to the
// single-engine reference at any shard count. docs/PARALLELISM.md walks
// through the protocol and its proof obligations.

// Arrival-key layout: bits [61:38] the port's creation-order link ID,
// bits [37:0] the per-port delivery counter. Both are pure functions of
// the simulated topology and traffic — never of scheduling order or of
// the partition — so same-time deliveries sort identically at every
// shard count.
const (
	linkSeqBits = 38
	linkIDBits  = 62 - linkSeqBits
)

// Signal-key layout (below sim.SeqSignal): bits [61:41] source node ID,
// bits [40:20] destination node ID, bits [19:0] the per-(src,dst) pair
// counter. Signals order after every arrival of the same instant and
// among themselves by (src, dst, emission order).
const (
	signalSeqBits  = 20
	signalNodeBits = 21
)

// Lookahead returns the global minimum link propagation delay: the
// synchronization window of the sharded runtime and the latency of every
// Signal. It is computed from the full topology on first use (and at
// Partition), so its value — and therefore signal timing — is identical
// at every shard count.
func (n *Network) Lookahead() sim.Time {
	if n.minDelay == 0 {
		n.minDelay = n.minLinkDelay()
	}
	return n.minDelay
}

// Signal schedules fn on the shard owning node to, one lookahead from
// now, ordered by the deterministic (from, to, pair-sequence) signal
// key. It is the cross-shard control channel for layers above netsim
// (the experiment runner's dependent-flow release and completion
// notifications); at one shard it degenerates to a keyed local schedule
// with the same latency, so behaviour does not depend on the shard
// count. Call only from the owning shard of from, during event
// execution.
func (s *Shard) Signal(from, to Node, fn func()) {
	if fn == nil {
		panic("netsim: signal nil func")
	}
	s.SignalEvent(from, to, sim.Func(fn), 0, nil)
}

// SignalEvent is Signal for a typed event: h.HandleEvent(op, arg) runs
// on the shard owning node to, at the position Signal would have given a
// closure. A long-lived handler that signals per flow (the transport
// kernel) uses it so a signal allocates nothing.
func (s *Shard) SignalEvent(from, to Node, h sim.Handler, op int32, arg any) {
	at := s.eng.Now() + s.net.Lookahead()
	key := s.signalKey(from.ID(), to.ID())
	dst := shardOf(to)
	if dst == s {
		s.eng.ScheduleEventKeyed(at, key, h, op, arg)
		return
	}
	s.out[dst.idx] = append(s.out[dst.idx], xrec{at: at, key: key, h: h, op: op, arg: arg})
}

func (s *Shard) signalKey(from, to NodeID) uint64 {
	if uint64(uint32(from)) >= 1<<signalNodeBits || uint64(uint32(to)) >= 1<<signalNodeBits {
		panic(fmt.Sprintf("netsim: node IDs %d->%d overflow the signal key space", from, to))
	}
	pair := uint64(uint32(from))<<signalNodeBits | uint64(uint32(to))
	seq := uint64(0)
	if s.pairSeq != nil {
		seq = uint64(s.pairSeq[pair])
		if seq >= 1<<signalSeqBits {
			panic(fmt.Sprintf("netsim: signal stream %d->%d overflowed", from, to))
		}
		s.pairSeq[pair] = uint32(seq + 1)
	} else {
		s.pairSeq = map[uint64]uint32{pair: 1}
	}
	return sim.SeqSignal | pair<<signalSeqBits | seq
}

// ReserveSignals sizes the shard's signal pair counters for pairs
// distinct (source, destination) pairs before the first signal, so the
// run's signals never regrow them; a no-op once a signal has been sent.
// The experiment runner counts the pairs its flows can key on each
// shard.
func (s *Shard) ReserveSignals(pairs int) {
	if s.pairSeq == nil {
		s.pairSeq = make(map[uint64]uint32, pairs)
	}
}

// Run drives the simulation until the horizon (sim.Forever runs to
// quiescence). With one shard this is the single-engine reference path;
// on a partitioned network it runs the conservative time-window loop.
// On return every port's ended transmission is booked, so the exported
// port counters can be read directly between runs. Running a released
// network (see Release) panics.
func (n *Network) Run(until sim.Time) sim.Time {
	if n.released {
		panic("netsim: Run on a released network")
	}
	var now sim.Time
	if len(n.shards) == 1 {
		now = n.Engine.Run(until)
	} else {
		now = n.runWindows(until)
	}
	n.eachPort((*Port).settle)
	return now
}

// runWindows executes lookahead-wide windows on every shard in
// parallel, exchanging cross-shard records at barriers.
//
// Correctness sketch: a window runs each engine to a shared horizon end.
// Every event dispatched inside the window has at > start (the previous
// barrier, or the skip-ahead point), and every record it emits for
// another shard carries at least one link delay — at least the global
// minimum delta — so the record's timestamp exceeds start + delta >= the
// window end. Records exchanged at the barrier therefore never land in
// the receiving shard's past, and the receiving engine's keyed
// comparator puts them exactly where the single-engine run would have
// dispatched them.
func (n *Network) runWindows(until sim.Time) sim.Time {
	delta := n.Lookahead()
	if delta <= 0 {
		panic("netsim: sharded run with zero lookahead")
	}
	cmds := make([]chan sim.Time, len(n.shards))
	done := make(chan struct{}, len(n.shards))
	var workers sync.WaitGroup
	for i, s := range n.shards {
		c := make(chan sim.Time, 1)
		cmds[i] = c
		workers.Add(1)
		go func(s *Shard, c chan sim.Time) {
			defer workers.Done()
			for to := range c {
				s.eng.Run(to)
				s.stopped = s.eng.Stopped()
				done <- struct{}{}
			}
		}(s, c)
	}
	// Join the workers, not just release them: a worker that has not yet
	// run its exit still holds its shard — and through it the network and
	// every flow and packet of the run — on a live goroutine stack, so the
	// caller's next collection would keep the whole finished run alive.
	defer func() {
		for _, c := range cmds {
			close(c)
		}
		workers.Wait()
	}()

	now := n.Engine.Now()
	for {
		next, any := n.earliestPending()
		if !any {
			if until == sim.Forever {
				return now // quiescent
			}
			next = until // idle to the horizon in one hop
		}
		start := now
		if next-1 > start {
			start = next - 1 // skip-ahead over the idle gap
		}
		end := start + delta
		if until != sim.Forever && end > until {
			end = until
		}
		for i := range cmds {
			cmds[i] <- end
		}
		for range cmds {
			<-done
		}
		now = end
		for _, s := range n.shards {
			if s.stopped {
				return now // interrupt fired; state is abandoned
			}
		}
		for _, s := range n.shards {
			for d, recs := range s.out {
				if len(recs) == 0 {
					continue
				}
				dst := n.shards[d].eng
				for _, r := range recs {
					dst.ScheduleEventKeyed(r.at, r.key, r.h, r.op, r.arg)
				}
				// Zero the drained records: the backing array is reused,
				// and stale entries would pin delivered packets.
				clear(recs)
				s.out[d] = recs[:0]
			}
		}
		if n.BarrierHook != nil {
			n.BarrierHook()
		}
		if until != sim.Forever && now >= until {
			return now
		}
	}
}

// earliestPending returns the smallest lower bound on pending event
// times across all shard engines.
func (n *Network) earliestPending() (sim.Time, bool) {
	var best sim.Time
	any := false
	for _, s := range n.shards {
		if t, ok := s.eng.NextAt(); ok && (!any || t < best) {
			best, any = t, true
		}
	}
	return best, any
}
