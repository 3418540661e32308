package netsim

import "amrt/internal/sim"

// CombineMode selects how a hop's spare-bandwidth observation is folded
// into the CE bit a packet carries. The paper uses AND (Eq. 3): the bit
// survives only if every hop on the path saw spare bandwidth, so the
// sender speeds up only when the most congested bottleneck has room.
// OR is provided for the ablation study.
type CombineMode uint8

// Combine modes.
const (
	CombineAND CombineMode = iota
	CombineOR
)

// AntiECNMarker implements the paper's §4.1 egress marking rule. At the
// instant a data packet is dequeued for transmission, the marker measures
// the idle gap since the previous transmission ended. If the gap is long
// enough to have transmitted one reference MSS, the link had spare
// bandwidth and the hop's observation is "under-utilized" (CE=1);
// otherwise the link is saturated (CE=0). The observation is combined
// into the packet's CE bit, which the sender initialized to 1.
//
// Eq. (2) in the paper measures consecutive dequeue timestamps, which for
// back-to-back full-size packets differ by exactly MSS/C and would mark a
// saturated link; the prose makes clear the intent is an idle gap that
// fits one more packet, which is what this implementation measures (see
// DESIGN.md §1).
//
// The reference size of the gap comparison is one MSS whatever the
// packet sizes: the paper fixes it at the Ethernet MTU.
type AntiECNMarker struct {
	// GapFactor scales the required gap: the marker requires an idle
	// time of at least GapFactor × MSS/C. 1.0 is the paper's rule;
	// other values are exercised by the threshold ablation.
	GapFactor float64
	// Mode is the multi-hop combining operator (AND per the paper).
	Mode CombineMode
	// Marked counts data packets that left this port with CE still set.
	Marked int64
	// Observed counts data packets examined.
	Observed int64

	// need is the idle gap a spare-bandwidth mark takes on a link of
	// rate: GapFactor × the nominal serialization time of one MSS,
	// computed at the first gap comparison and again only if the marker
	// finds itself on a link of another rate. A port's nominal rate
	// never changes (a degraded rate is not what the rule reads), so a
	// marker that stays on one port computes it once.
	rate sim.Rate
	need sim.Time
}

// NewAntiECNMarker returns a marker with the paper's defaults
// (GapFactor=1, AND combining), of its own: the form for a marker
// outside any fabric. Fabrics carve theirs (Slabs.NewAntiECNMarker).
func NewAntiECNMarker() *AntiECNMarker {
	return (*Slabs)(nil).NewAntiECNMarker(1, CombineAND)
}

// OnDequeue implements DequeueMarker.
func (m *AntiECNMarker) OnDequeue(port *Port, pkt *Packet, now sim.Time) {
	if pkt.Type != Data {
		return
	}
	m.Observed++
	spare := true
	if lastEnd, ever := port.LastTxEnd(); ever {
		if r := port.link.Rate; r != m.rate {
			m.rate, m.need = r, sim.Time(float64(r.TxTime(MSS))*m.GapFactor)
		}
		spare = now-lastEnd >= m.need
	}
	switch m.Mode {
	case CombineOR:
		pkt.CE = pkt.CE || spare
	default:
		pkt.CE = pkt.CE && spare
	}
	if pkt.CE {
		m.Marked++
	}
}
