package transport

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// Emitter is what a Pacer paces: Emit sends one control packet and
// reports true, or reports false to let the pacer go idle.
type Emitter interface {
	Emit() bool
}

// Pacer emits control packets (pHost tokens, NDP pulls, AMRT and SIRD
// grants) at a fixed rate, going idle when its Emitter reports nothing
// to send and resuming on Kick. The first emission after a long idle
// period fires immediately; subsequent ones keep the configured
// spacing.
//
// A stack keeps its pacers by value in per-host records (HostTable)
// that are their own Emitters; the pacer is the engine event handler
// of its emissions, so an emission costs no closure and a pacer no
// allocation of its own.
type Pacer struct {
	eng   *sim.Engine
	tick  sim.Time
	emit  Emitter
	last  sim.Time
	timer sim.Timer
}

// Init readies the pacer to call emit at most once per tick.
func (p *Pacer) Init(eng *sim.Engine, tick sim.Time, emit Emitter) {
	if tick <= 0 {
		panic("transport: pacer tick must be positive")
	}
	*p = Pacer{eng: eng, tick: tick, emit: emit, last: -tick}
}

// emitFunc adapts a func to Emitter.
type emitFunc func() bool

func (f emitFunc) Emit() bool { return f() }

// NewPacer returns a pacer of its own emitting at most once per tick,
// for a caller with no record to keep one in. emit should send one
// control packet and return true, or return false to go idle.
func NewPacer(eng *sim.Engine, tick sim.Time, emit func() bool) *Pacer {
	p := new(Pacer)
	p.Init(eng, tick, emitFunc(emit))
	return p
}

// HostTick returns the pacing interval of host h's receiver-side
// control stream: one MSS serialization time of h's link, the rate at
// which the data it asks for can arrive.
func (k *Kernel) HostTick(h *netsim.Host) sim.Time { return h.LinkRate().TxTime(netsim.MSS) }

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
	p.timer = p.eng.ScheduleEventAt(at, p, 0, nil)
}

// HandleEvent implements sim.Handler: the pacer's emission is due.
func (p *Pacer) HandleEvent(int32, any) {
	if p.emit.Emit() {
		p.last = p.eng.Now()
		p.Kick()
	}
}
