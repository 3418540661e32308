package netsim

import (
	"amrt/internal/metrics"
	"amrt/internal/sim"
)

// RegisterMetrics publishes p's telemetry into reg under the prefix
// "port.<name>.": instantaneous queue depth (packets and bytes),
// per-interval link utilization, cumulative transmit and drop
// counters, and — when the port carries an AntiECNMarker — the
// anti-ECN mark counters and per-interval mark rate. It reuses the
// port's existing PortMonitor or attaches one, and returns it; a nil
// registry just ensures the monitor exists.
//
// The utilization series consumes the monitor's measurement window
// (each sample reads and resets it), so callers that also poll
// Utilization/ResetWindow by hand should not register the same port.
func (p *Port) RegisterMetrics(reg *metrics.Registry) *PortMonitor {
	m := p.Monitor
	if m == nil {
		m = Attach(p)
	}
	if reg == nil {
		return m
	}
	prefix := "port." + p.Name() + "."
	reg.Series(prefix+"queue_pkts", func(sim.Time) float64 { return float64(p.queue.Len()) })
	reg.Series(prefix+"queue_bytes", func(sim.Time) float64 { return float64(p.queue.Bytes()) })
	reg.Series(prefix+"util", func(now sim.Time) float64 {
		u := m.Utilization(now)
		m.ResetWindow(now)
		return u
	})
	reg.CounterFunc(prefix+"tx_bytes", func() int64 { p.settle(); return p.TxBytes })
	reg.CounterFunc(prefix+"tx_packets", func() int64 { p.settle(); return p.TxPackets })
	reg.CounterFunc(prefix+"drops", func() int64 { return p.Drops })
	reg.Series(prefix+"admin_up", func(sim.Time) float64 {
		if p.down {
			return 0
		}
		return 1
	})
	if mk, ok := p.Marker.(*AntiECNMarker); ok {
		mk.RegisterMetrics(reg, prefix)
	}
	return m
}

// RegisterMetrics publishes the marker's cumulative mark counters and
// its per-interval mark rate (packets that left with CE set over
// packets observed, per sampling interval) under prefix.
func (m *AntiECNMarker) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"ce_marked", func() int64 { return m.Marked })
	reg.CounterFunc(prefix+"ce_observed", func() int64 { return m.Observed })
	reg.Series(prefix+"mark_rate", metrics.RatioOf(
		func() int64 { return m.Marked },
		func() int64 { return m.Observed }))
}

// RegisterMetrics publishes this shard's delivery and drop counters
// (with a per-packet-type drop breakdown) into reg. The names carry no
// shard suffix: when per-shard registries are merged after a sharded
// run, same-named counters sum, so the merged dump holds the network
// totals — identical to what a single-shard run registers directly.
func (s *Shard) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("net.delivered", func() int64 { return s.Delivered })
	reg.CounterFunc("net.dropped", func() int64 { return s.Dropped })
	reg.CounterFunc("net.no_route_drops", func() int64 { return s.NoRouteDrops })
	for t := PacketType(0); t < numPacketTypes; t++ {
		t := t
		reg.CounterFunc("net.dropped."+t.String(),
			func() int64 { return s.DroppedByType[t] })
	}
}
