// Package faults is a deterministic fault-injection subsystem for
// netsim networks. A Plan describes link failures (down/up flaps, rate
// degradation), node failures (host crash+restart, switch reboots,
// ECMP rehash events), and packet-loss processes (independent
// control/data loss, Gilbert–Elliott bursty loss); Apply homes each
// link and node event to the engine shard owning the affected
// port/host/switch, and WrapQueues layers the loss processes onto a
// protocol's switch-queue factory. All randomness derives from the
// plan seed via sim.SubSeed, and the per-queue loss streams are keyed
// by port name — not partition — so the same plan on the same seed
// reproduces byte-identical runs at every shard count.
//
// Plans are usually built from a compact textual spec (see Parse), e.g.
//
//	link=leaf0->spine1,down=5ms,up=8ms;ctrl-loss=0.01
//
// which flaps one leaf uplink once and drops 1% of control packets
// everywhere. docs/FAULTS.md documents the grammar and fault models.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// LinkFlap takes a named link administratively down at DownAt and back
// up at UpAt. A positive Period repeats the cycle (down at
// DownAt+k*Period for every k) until the run's horizon; zero means a
// single flap. Both unidirectional ports of the full-duplex link are
// affected together, matching a pulled cable or dead optic.
type LinkFlap struct {
	// Link names either direction of the link, e.g. "leaf0->spine1";
	// the reverse port is derived automatically.
	Link   string
	DownAt sim.Time
	UpAt   sim.Time
	Period sim.Time
}

// Degrade caps a named link's serialization rate at Factor times
// nominal between At and Until — an optic renegotiating a lower speed
// rather than dying outright. Both directions are affected.
type Degrade struct {
	Link      string
	At, Until sim.Time
	// Factor is the surviving fraction of the nominal rate, in (0,1).
	Factor float64
}

// BurstLoss selects the Gilbert–Elliott two-state burst-loss model for
// every switch queue. ToBad and ToGood are the per-arrival transition
// probabilities (stationary bad fraction ToBad/(ToBad+ToGood), mean
// burst 1/ToGood arrivals); LossBad and LossGood are the per-data-packet
// drop probabilities in each state.
type BurstLoss struct {
	ToBad, ToGood     float64
	LossBad, LossGood float64
}

// NodeCrash crashes a named host at At and restarts it at Up. The crash
// loses all volatile endpoint state: the host's NIC queue is flushed
// (packets it had queued die with it), both directions of its access
// link park for the outage, and the plan's CrashHook fires so the
// protocol layer can drop the host's sender/receiver/pacer state. On
// restart the link unparks and RestartHook fires; flows whose receiver
// crashed are re-announced by their senders and rebuilt from the RTS,
// flows whose sender crashed are killed (their bytes are gone).
type NodeCrash struct {
	// Node is the host name the topology builders assign ("h0.3" on the
	// leaf-spine fabric, "S0"/"R2" on the scenario topologies).
	Node string
	At   sim.Time
	Up   sim.Time
}

// SwitchReboot reboots a named switch at At: every egress queue it owns
// is flushed (a reboot clears packet memory) and every port parks until
// Up. Neighbors route around it where ECMP offers an alternative;
// single-homed hosts behind it are simply cut off for the window.
type SwitchReboot struct {
	// Node is the switch name ("leaf1", "spine0", "swA").
	Node string
	At   sim.Time
	Up   sim.Time
}

// Rehash rotates the network's ECMP hash salt at At, moving every
// multipath flow onto a freshly chosen equal-cost path — the classic
// reordering event of datacenter fabrics (maintenance reshuffles,
// hash-seed rotation). The new salt derives from the plan seed, so the
// post-rehash path assignment is deterministic per seed.
type Rehash struct {
	At sim.Time
}

// Plan is a complete fault scenario. The zero value is an empty plan
// that injects nothing; Apply and WrapQueues on it are no-ops (modulo
// wrapper identity).
type Plan struct {
	// Seed namespaces every random stream the plan owns. It defaults to
	// the run seed when built through the experiment layer; a seed=N
	// spec clause pins it independently.
	Seed int64

	Flaps    []LinkFlap
	Degrades []Degrade
	Crashes  []NodeCrash
	Reboots  []SwitchReboot
	Rehashes []Rehash

	// Burst, when non-nil, wraps every switch queue in a
	// Gilbert–Elliott burst-loss process.
	Burst *BurstLoss

	// CtrlLoss and DataLoss are independent per-packet drop
	// probabilities applied at every switch queue. CtrlLoss lifts the
	// historical control-packet sparing of loss injection — the fault
	// class receiver-driven transports are most sensitive to.
	CtrlLoss float64
	DataLoss float64

	// Cumulative event counters, maintained by the scheduled callbacks
	// so tests and telemetry can observe plan activity. Each logical
	// fault event increments its counter exactly once — on the shard
	// owning the fault's designated port/host/switch — via an atomic
	// add, because events of distinct faults may execute concurrently on
	// different shard goroutines within one synchronization window. The
	// final values are read only after the run joins, so they are
	// deterministic and identical at every shard count.
	LinkDownEvents int64
	LinkUpEvents   int64
	DegradeEvents  int64
	CrashEvents    int64
	RebootEvents   int64
	RehashEvents   int64

	// CrashHook and RestartHook, when non-nil, are invoked by the crash
	// and restart events of every NodeCrash, after the host's link state
	// has been updated. On a partitioned network the hook fires once per
	// shard — a same-instant event on every shard engine — with that
	// shard as the first argument, so each protocol-stack instance drops
	// exactly the slice of the crashed host's state it owns. The
	// experiment runner points CrashHook at the per-shard stack
	// instances; no stack needs the restart (senders re-announce), so
	// RestartHook is for observers.
	CrashHook   func(sh *netsim.Shard, h *netsim.Host)
	RestartHook func(sh *netsim.Shard, h *netsim.Host)

	// adminLog records every administrative down/up action Apply
	// scheduled, per port, sorted by time with plan order breaking ties
	// — the oracle behind AdminDown.
	adminLog map[*netsim.Port][]adminAction
}

// adminAction is one administrative state change in the AdminDown
// oracle: port goes down (or up) at at.
type adminAction struct {
	at   sim.Time
	down bool
}

// AdminDown reports whether the plan has port pt administratively down
// as of now: the last scheduled action at or before now wins, with plan
// order breaking ties at equal times — exactly the state the port
// itself holds after its end-of-instant fault events execute. It is a
// pure function of the plan (built by Apply), so any shard may consult
// it about any port without reading cross-shard state; the experiment
// runner's liveness watchdog uses it to excuse flows whose access links
// a fault parked. Ports the plan never touches — every port, without a
// plan — are never down.
func (p *Plan) AdminDown(pt *netsim.Port, now sim.Time) bool {
	if p == nil {
		return false
	}
	down := false
	for _, a := range p.adminLog[pt] {
		if a.at <= now {
			down = a.down
		}
	}
	return down
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Flaps) == 0 && len(p.Degrades) == 0 &&
		len(p.Crashes) == 0 && len(p.Reboots) == 0 && len(p.Rehashes) == 0 &&
		p.Burst == nil && p.CtrlLoss == 0 && p.DataLoss == 0)
}

// WrapQueues layers the plan's loss processes over a protocol's switch
// queue factory. Queue construction order is deterministic (topology
// builders create ports in a fixed order), so giving the k-th queue the
// sub-seed derived from k keeps every per-queue stream stable across
// runs. Plans without loss processes return inner unchanged.
func (p *Plan) WrapQueues(inner netsim.QueueFactory) netsim.QueueFactory {
	if p == nil || (p.Burst == nil && p.CtrlLoss == 0 && p.DataLoss == 0) {
		return inner
	}
	n := 0
	return func(s *netsim.Slabs) netsim.Queue {
		q := inner(s)
		idx := strconv.Itoa(n)
		n++
		if b := p.Burst; b != nil {
			seed := sim.SubSeed(p.Seed, "faults.burst.", idx)
			q = s.NewGilbertElliott(q, b.ToBad, b.ToGood, b.LossBad, b.LossGood, seed)
		}
		if p.CtrlLoss > 0 || p.DataLoss > 0 {
			seed := sim.SubSeed(p.Seed, "faults.loss.", idx)
			l := s.NewLossy(q, p.DataLoss, seed)
			l.CtrlDropProb = p.CtrlLoss
			q = l
		}
		return q
	}
}

// Apply resolves the plan's names against net and schedules every fault
// event onto the shard engines that own the affected ports, hosts, and
// switches. horizon bounds periodic flaps; events are scheduled eagerly
// up front (a year-long horizon with a microsecond period would be
// pathological, but plans come from short test specs). It must be
// called after the topology is built — and, on a sharded run, after
// Partition — and before the run starts. Unknown link, host, or switch
// names are an error.
//
// Shard safety and determinism: every fault event runs in the engine
// late band below sim.SubObserver — after all same-instant packet and
// protocol events, before the same-instant observers — under a sub-key
// drawn in plan order. A logical fault whose effects span shards (a
// full-duplex flap with the two directions on different shards, a host
// crash whose protocol state is split between sender and receiver
// instances, an ECMP rehash) becomes one same-instant event per
// involved shard, all sharing that one sub-key. Because the actions a
// shard's event performs touch only state that shard owns, and because
// plan order fixes the sub-key order identically at every shard count,
// the merged event order — and therefore every byte of the run — equals
// the single-engine order. docs/FAULTS.md spells out the argument.
func (p *Plan) Apply(net *netsim.Network, horizon sim.Time) error {
	if p == nil {
		return nil
	}
	ports := portIndex(net)
	p.adminLog = make(map[*netsim.Port][]adminAction)
	ns := net.NumShards()

	// One logical fault event = one late-band sub-key = at most one
	// scheduled event per shard. parts[i] is what shard i must do.
	// Recovery events past the horizon are still scheduled (they simply
	// never execute on a horizon-bounded run), matching the per-clause
	// filters that decide which faults exist at all.
	sub := uint64(0)
	schedule := func(at sim.Time, parts []func()) {
		s := sub
		sub++
		if s >= sim.SubObserver {
			// Unreachable through the parser (maxFlapCycles bounds the
			// event count far below 2^32), but the invariant matters:
			// action sub-keys must stay below the observer partition.
			panic("faults: plan schedules too many events for the late-band action space")
		}
		for i, fn := range parts {
			if fn != nil {
				net.Shard(i).Eng().ScheduleLate(at, s, fn)
			}
		}
	}
	newParts := func() []func() { return make([]func(), ns) }
	add := func(parts []func(), idx int, fn func()) {
		if prev := parts[idx]; prev != nil {
			parts[idx] = func() { prev(); fn() }
		} else {
			parts[idx] = fn
		}
	}
	logAdmin := func(pt *netsim.Port, at sim.Time, down bool) {
		if pt != nil {
			p.adminLog[pt] = append(p.adminLog[pt], adminAction{at, down})
		}
	}

	for _, f := range p.Flaps {
		fwd, rev, err := resolve(ports, f.Link)
		if err != nil {
			return err
		}
		if f.UpAt <= f.DownAt {
			return fmt.Errorf("faults: link %s: up time %v not after down time %v", f.Link, f.UpAt, f.DownAt)
		}
		// Flap events are scheduled eagerly; cap the cycle count so a
		// short period against an unbounded horizon fails loudly instead
		// of looping forever.
		const maxFlapCycles = 100000
		for k := int64(0); ; k++ {
			if f.Period > 0 && k >= maxFlapCycles {
				return fmt.Errorf("faults: link %s: period %v yields more than %d flap cycles before the horizon", f.Link, f.Period, maxFlapCycles)
			}
			off := sim.Time(k) * f.Period
			down, up := f.DownAt+off, f.UpAt+off
			if down > horizon {
				break
			}
			dn := newParts()
			add(dn, fwd.Shard().Index(), func() {
				atomic.AddInt64(&p.LinkDownEvents, 1)
				fwd.SetAdminDown(true)
			})
			logAdmin(fwd, down, true)
			if rev != nil {
				add(dn, rev.Shard().Index(), func() { rev.SetAdminDown(true) })
				logAdmin(rev, down, true)
			}
			schedule(down, dn)
			upp := newParts()
			add(upp, fwd.Shard().Index(), func() {
				atomic.AddInt64(&p.LinkUpEvents, 1)
				fwd.SetAdminDown(false)
			})
			logAdmin(fwd, up, false)
			if rev != nil {
				add(upp, rev.Shard().Index(), func() { rev.SetAdminDown(false) })
				logAdmin(rev, up, false)
			}
			schedule(up, upp)
			if f.Period <= 0 {
				break
			}
		}
	}
	for _, d := range p.Degrades {
		fwd, rev, err := resolve(ports, d.Link)
		if err != nil {
			return err
		}
		if d.Factor <= 0 || d.Factor >= 1 {
			return fmt.Errorf("faults: link %s: degrade factor %v outside (0,1)", d.Link, d.Factor)
		}
		if d.Until <= d.At {
			return fmt.Errorf("faults: link %s: degrade end %v not after start %v", d.Link, d.Until, d.At)
		}
		d := d
		start := newParts()
		add(start, fwd.Shard().Index(), func() {
			atomic.AddInt64(&p.DegradeEvents, 1)
			fwd.SetDegradedRate(sim.Rate(float64(fwd.Link().Rate) * d.Factor))
		})
		if rev != nil {
			add(start, rev.Shard().Index(), func() {
				rev.SetDegradedRate(sim.Rate(float64(rev.Link().Rate) * d.Factor))
			})
		}
		schedule(d.At, start)
		end := newParts()
		add(end, fwd.Shard().Index(), func() { fwd.SetDegradedRate(0) })
		if rev != nil {
			add(end, rev.Shard().Index(), func() { rev.SetDegradedRate(0) })
		}
		schedule(d.Until, end)
	}
	for _, c := range p.Crashes {
		host := hostByName(net, c.Node)
		if host == nil {
			return fmt.Errorf("faults: unknown host %q in crash clause", c.Node)
		}
		if c.Up <= c.At {
			return fmt.Errorf("faults: crash %s: restart %v not after crash %v", c.Node, c.Up, c.At)
		}
		if c.At > horizon {
			continue
		}
		nic := host.NIC()
		var down *netsim.Port
		if nic != nil {
			down = ports[reverseName(nic.Name())]
		}
		host, c := host, c
		crash := newParts()
		add(crash, host.Shard().Index(), func() {
			atomic.AddInt64(&p.CrashEvents, 1)
			if nic != nil {
				// The crashed host's queued output dies with its memory;
				// the access link parks in both directions.
				nic.FlushQueue()
				nic.SetAdminDown(true)
			}
		})
		if down != nil {
			add(crash, down.Shard().Index(), func() { down.SetAdminDown(true) })
		}
		// Protocol state for the crashed host's flows is split across
		// instances (sender side on each source's shard, receiver side on
		// each home shard), so the hook fires on every shard; each
		// instance drops only the halves it owns.
		for i := 0; i < ns; i++ {
			i := i
			add(crash, i, func() {
				if p.CrashHook != nil {
					p.CrashHook(net.Shard(i), host)
				}
			})
		}
		logAdmin(nic, c.At, true)
		logAdmin(down, c.At, true)
		schedule(c.At, crash)
		restart := newParts()
		add(restart, host.Shard().Index(), func() {
			if nic != nil {
				nic.SetAdminDown(false)
			}
		})
		if down != nil {
			add(restart, down.Shard().Index(), func() { down.SetAdminDown(false) })
		}
		for i := 0; i < ns; i++ {
			i := i
			add(restart, i, func() {
				if p.RestartHook != nil {
					p.RestartHook(net.Shard(i), host)
				}
			})
		}
		logAdmin(nic, c.Up, false)
		logAdmin(down, c.Up, false)
		schedule(c.Up, restart)
	}
	for _, r := range p.Reboots {
		sw := switchByName(net, r.Node)
		if sw == nil {
			return fmt.Errorf("faults: unknown switch %q in reboot clause", r.Node)
		}
		if r.Up <= r.At {
			return fmt.Errorf("faults: reboot %s: up %v not after reboot %v", r.Node, r.Up, r.At)
		}
		if r.At > horizon {
			continue
		}
		sw, r := sw, r
		// Every port of a switch lives on the switch's shard, so a
		// reboot is a single-shard event however the network is split.
		rb := newParts()
		add(rb, sw.Shard().Index(), func() {
			atomic.AddInt64(&p.RebootEvents, 1)
			for _, pt := range sw.Ports() {
				// A reboot clears packet memory before the ports go dark.
				pt.FlushQueue()
				pt.SetAdminDown(true)
			}
		})
		for _, pt := range sw.Ports() {
			logAdmin(pt, r.At, true)
		}
		schedule(r.At, rb)
		up := newParts()
		add(up, sw.Shard().Index(), func() {
			for _, pt := range sw.Ports() {
				pt.SetAdminDown(false)
			}
		})
		for _, pt := range sw.Ports() {
			logAdmin(pt, r.Up, false)
		}
		schedule(r.Up, up)
	}
	for i, rh := range p.Rehashes {
		if rh.At > horizon {
			continue
		}
		salt := uint64(sim.SubSeed(p.Seed, fmt.Sprintf("faults.rehash.%d", i)))
		// The salt is per-shard state: one same-instant event per shard
		// rotates every copy, so all switches re-hash from the same
		// virtual time regardless of which shard owns them.
		rot := newParts()
		for s := 0; s < ns; s++ {
			s := s
			if s == 0 {
				add(rot, 0, func() {
					atomic.AddInt64(&p.RehashEvents, 1)
					net.Shard(0).SetECMPSalt(salt)
				})
			} else {
				add(rot, s, func() { net.Shard(s).SetECMPSalt(salt) })
			}
		}
		schedule(rh.At, rot)
	}
	// Settle the oracle: AdminDown scans each port's log front to back,
	// so entries must be time-ordered; the stable sort keeps plan order
	// as the tie-break at equal times, matching sub-key execution order.
	for _, log := range p.adminLog {
		sort.SliceStable(log, func(i, j int) bool { return log[i].at < log[j].at })
	}
	return nil
}

// hostByName resolves a host by its topology name, or nil.
func hostByName(net *netsim.Network, name string) *netsim.Host {
	for _, h := range net.Hosts() {
		if h.Name() == name {
			return h
		}
	}
	return nil
}

// switchByName resolves a switch by its topology name, or nil.
func switchByName(net *netsim.Network, name string) *netsim.Switch {
	for _, sw := range net.Switches() {
		if sw.Name() == name {
			return sw
		}
	}
	return nil
}

// RegisterMetrics publishes the plan's cumulative event counters into
// reg, so fault activity lands in the same deterministic dumps as the
// network's own telemetry.
func (p *Plan) RegisterMetrics(reg *metrics.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.CounterFunc("faults.link_down_events", func() int64 { return p.LinkDownEvents })
	reg.CounterFunc("faults.link_up_events", func() int64 { return p.LinkUpEvents })
	reg.CounterFunc("faults.degrade_events", func() int64 { return p.DegradeEvents })
	reg.CounterFunc("faults.crash_events", func() int64 { return p.CrashEvents })
	reg.CounterFunc("faults.reboot_events", func() int64 { return p.RebootEvents })
	reg.CounterFunc("faults.rehash_events", func() int64 { return p.RehashEvents })
}

// portIndex maps every port name ("a->b") in the network to its port.
func portIndex(net *netsim.Network) map[string]*netsim.Port {
	idx := make(map[string]*netsim.Port)
	for _, sw := range net.Switches() {
		for _, pt := range sw.Ports() {
			idx[pt.Name()] = pt
		}
	}
	for _, h := range net.Hosts() {
		if nic := h.NIC(); nic != nil {
			idx[nic.Name()] = nic
		}
	}
	return idx
}

// resolve returns the named port and, when present, its reverse
// direction ("b->a" for "a->b"), so faults hit the full-duplex link.
func resolve(idx map[string]*netsim.Port, name string) (fwd, rev *netsim.Port, err error) {
	fwd = idx[name]
	if fwd == nil {
		return nil, nil, fmt.Errorf("faults: unknown link %q (no port by that name)", name)
	}
	rev = idx[reverseName(name)]
	return fwd, rev, nil
}

func reverseName(name string) string {
	for i := 0; i+1 < len(name); i++ {
		if name[i] == '-' && name[i+1] == '>' {
			return name[i+2:] + "->" + name[:i]
		}
	}
	return ""
}
