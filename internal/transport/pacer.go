package transport

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// Pacer emits control packets (pHost tokens, NDP pulls, AMRT and SIRD
// grants) at a fixed rate, going idle when the emit callback reports
// nothing to send and resuming on Kick. The first emission after a long
// idle period fires immediately; subsequent ones keep the configured
// spacing.
type Pacer struct {
	eng  *sim.Engine
	tick sim.Time
	emit func() bool
	// fireFn is p.fire bound once: evaluating the method value at every
	// Kick would allocate a closure per emission.
	fireFn func()
	last   sim.Time
	timer  sim.Timer
}

// NewPacer returns a pacer emitting at most once per tick. emit should
// send one control packet and return true, or return false to go idle.
func NewPacer(eng *sim.Engine, tick sim.Time, emit func() bool) *Pacer {
	if tick <= 0 {
		panic("transport: pacer tick must be positive")
	}
	p := &Pacer{eng: eng, tick: tick, emit: emit, last: -tick}
	p.fireFn = p.fire
	return p
}

// HostPacer returns a pacer for host h's receiver-side control stream:
// one emission per MSS serialization time of h's link, the rate at
// which the data it asks for can arrive.
func (k *Kernel) HostPacer(h *netsim.Host, emit func() bool) *Pacer {
	return NewPacer(k.Engine(), h.LinkRate().TxTime(k.Cfg.MSS), emit)
}

// Kick schedules the next emission if the pacer is idle. Call it
// whenever new work may have become available.
func (p *Pacer) Kick() {
	if p.timer.Active() {
		return
	}
	at := p.last + p.tick
	if now := p.eng.Now(); at < now {
		at = now
	}
	p.timer = p.eng.ScheduleAt(at, p.fireFn)
}

func (p *Pacer) fire() {
	if p.emit() {
		p.last = p.eng.Now()
		p.Kick()
	}
}

// Tick returns the pacing interval.
func (p *Pacer) Tick() sim.Time { return p.tick }
