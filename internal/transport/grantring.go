package transport

import "amrt/internal/sim"

// GrantRing ring-buffers the (time, granted) pairs a receiver notes at
// each recovery check, so the scan can tell which holes were authorized
// long enough ago to declare lost without timestamping every grant.
type GrantRing struct {
	at      [8]sim.Time
	granted [8]int32
	head    int32 // the slot the next note goes to
	full    bool  // every slot holds a note; else those below head do
}

// Note records that granted packets stood authorized at time now.
func (g *GrantRing) Note(now sim.Time, granted int32) {
	g.at[g.head], g.granted[g.head] = now, granted
	if g.head++; int(g.head) == len(g.at) {
		g.head, g.full = 0, true
	}
}

// Before returns the granted count at the newest note no later than
// cutoff (0 if none is old enough).
func (g *GrantRing) Before(cutoff sim.Time) int32 {
	n := int(g.head)
	if g.full {
		n = len(g.at)
	}
	best, bestAt := int32(0), sim.Time(-1)
	for i, at := range g.at[:n] {
		if at <= cutoff && at > bestAt {
			best, bestAt = g.granted[i], at
		}
	}
	return best
}
