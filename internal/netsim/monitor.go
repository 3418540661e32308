package netsim

import "amrt/internal/sim"

// PortMonitor accumulates transmitted bytes and queue-occupancy
// watermarks for one egress port. Attach installs one; experiment code
// samples and resets it on its own schedule.
type PortMonitor struct {
	rate sim.Rate
	// port is the monitored port. The byte counters settle it before
	// they answer, so a transmission that ended before a window reset is
	// booked into the window it ended in.
	port *Port

	// cumulative transmitted bytes since construction
	totalBytes int64
	// window accumulator since the last ResetWindow
	windowBytes int64
	windowStart sim.Time

	// Queue occupancy extremes, observed at enqueue instants.
	MaxQueueLen   int
	MaxQueueBytes int
}

// Attach creates a monitor for p, installs it, and returns it. The
// monitor is carved from the network's monitor slab, sized for one per
// host (see Network.Reserve).
func Attach(p *Port) *PortMonitor {
	m := p.net.monitors.One()
	m.rate, m.port = p.link.Rate, p
	p.Monitor = m
	return m
}

func (m *PortMonitor) noteTx(bytes int64) {
	m.totalBytes += bytes
	m.windowBytes += bytes
}

// settle books the port's transmission, if one has ended unrecorded.
func (m *PortMonitor) settle() { m.port.settle() }

func (m *PortMonitor) noteQueue(q Queue) {
	l := q.Len()
	if l > m.MaxQueueLen {
		m.MaxQueueLen = l
	}
	if b := q.Bytes(); b > m.MaxQueueBytes {
		m.MaxQueueBytes = b
	}
}

// TotalBytes returns bytes transmitted since construction.
func (m *PortMonitor) TotalBytes() int64 {
	m.settle()
	return m.totalBytes
}

// WindowBytes returns bytes transmitted since the last ResetWindow.
func (m *PortMonitor) WindowBytes() int64 {
	m.settle()
	return m.windowBytes
}

// Utilization returns the fraction of link capacity used in the current
// window, in [0, ~1]. now must not precede the window start.
func (m *PortMonitor) Utilization(now sim.Time) float64 {
	m.settle()
	d := now - m.windowStart
	if d <= 0 {
		return 0
	}
	cap := float64(m.rate.BytesIn(d))
	if cap <= 0 {
		return 0
	}
	u := float64(m.windowBytes) / cap
	return u
}

// ResetWindow starts a new measurement window at now.
func (m *PortMonitor) ResetWindow(now sim.Time) {
	m.settle()
	m.windowBytes = 0
	m.windowStart = now
}
