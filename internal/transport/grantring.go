package transport

import "amrt/internal/sim"

// GrantRing ring-buffers the (time, granted) pairs a receiver notes at
// each recovery check, so the scan can tell which holes were authorized
// long enough ago to declare lost without timestamping every grant.
type GrantRing struct {
	slots [8]grantNote
	head  int
}

type grantNote struct {
	at      sim.Time
	granted int32
	valid   bool
}

// Note records that granted packets stood authorized at time now.
func (g *GrantRing) Note(now sim.Time, granted int32) {
	g.slots[g.head] = grantNote{at: now, granted: granted, valid: true}
	g.head = (g.head + 1) % len(g.slots)
}

// Before returns the granted count at the newest note no later than
// cutoff (0 if none is old enough).
func (g *GrantRing) Before(cutoff sim.Time) int32 {
	best, bestAt := int32(0), sim.Time(-1)
	for _, s := range g.slots {
		if s.valid && s.at <= cutoff && s.at > bestAt {
			best, bestAt = s.granted, s.at
		}
	}
	return best
}
