// Package campaign is the sweep-campaign engine behind amrt.Sweep: it
// expands a declarative parameter grid (protocol × workload × topology
// × incast degree × load × fault spec × seed) into run points, executes them on the
// panic-propagating experiment worker pool with cooperative context
// cancellation, memoizes every completed point in a content-addressed
// on-disk cache so interrupted or repeated campaigns resume with cache
// hits instead of recomputation, and aggregates same-cell points across
// seeds into mean/CI summaries via internal/stats.
//
// Each point runs once. A point is a pure function of its config, so
// the ways it can fail — a config the fabric rejects, a wall-clock
// cell timeout, a cache write error — recur on a second run; there is
// no retry. Config.Quarantine chooses between cancelling the campaign
// on the first failure and reporting the point in Result.Failed.
//
// The package is deliberately ignorant of the simulator: a point's
// payload is opaque bytes (the root package stores an amrt.Result's
// cell record) plus a small Metrics record used for aggregation.
// That keeps the dependency arrow pointing root → campaign →
// experiment/stats with no cycle.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
)

// Point is one cell-instance of a sweep grid: a single simulation run.
// It is the one declaration of a sweep coordinate; the root package's
// reports embed it as amrt.SweepCoord.
type Point struct {
	Protocol string `json:"protocol"`
	Workload string `json:"workload"`
	// Topology is a topology spec (amrt.ParseTopology grammar); empty
	// means the campaign base's fabric.
	Topology string `json:"topology,omitempty"`
	// Degree is the incast fan-in; 0 means the base's degree. It only
	// matters for campaigns running the "incast" pattern.
	Degree int     `json:"degree,omitempty"`
	Load   float64 `json:"load"`
	// Seed is zero only on a cell coordinate (Cell); amrt.Sweep never
	// runs a point at seed 0.
	Seed int64 `json:"seed,omitempty"`
	// Faults is a fault-injection spec (docs/FAULTS.md); empty means a
	// fault-free run.
	Faults string `json:"faults,omitempty"`
}

// Cell is a Point stripped of its seed: the unit results are aggregated
// over.
func (p Point) Cell() Point {
	p.Seed = 0
	return p
}

// String renders the coordinate on one line: protocol and workload, then
// key=value for every other field, each only when it is non-zero.
func (p Point) String() string {
	var parts []string
	add := func(ok bool, s string) {
		if ok {
			parts = append(parts, s)
		}
	}
	add(p.Protocol != "", p.Protocol)
	add(p.Workload != "", p.Workload)
	add(p.Topology != "", "topo="+p.Topology)
	add(p.Degree != 0, "degree="+strconv.Itoa(p.Degree))
	add(p.Load != 0, "load="+strconv.FormatFloat(p.Load, 'g', -1, 64))
	add(p.Seed != 0, "seed="+strconv.FormatInt(p.Seed, 10))
	add(p.Faults != "", "faults="+p.Faults)
	return strings.Join(parts, " ")
}

// Grid declares a sweep campaign: the cartesian product of its axes.
type Grid struct {
	Protocols []string
	Workloads []string
	// Topologies lists topology specs to sweep; an empty slice means
	// one base-fabric axis value.
	Topologies []string
	// Degrees lists incast fan-ins to sweep; an empty slice means one
	// base-degree axis value.
	Degrees []int
	Loads   []float64
	Seeds   []int64
	// Faults lists fault specs to sweep; an empty slice means one
	// fault-free axis value.
	Faults []string
}

// Expand enumerates the grid's points in deterministic paper order:
// protocol outermost, then workload, topology, degree, load, fault
// spec, and seed innermost — so all seeds of one cell are adjacent and
// a partial campaign still yields fully-aggregated leading cells.
func (g Grid) Expand() []Point {
	topos := g.Topologies
	if len(topos) == 0 {
		topos = []string{""}
	}
	degrees := g.Degrees
	if len(degrees) == 0 {
		degrees = []int{0}
	}
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	n := len(g.Protocols) * len(g.Workloads) * len(topos) * len(degrees) * len(g.Loads) * len(faults) * len(g.Seeds)
	out := make([]Point, 0, n)
	for _, proto := range g.Protocols {
		for _, wl := range g.Workloads {
			for _, tp := range topos {
				for _, deg := range degrees {
					for _, load := range g.Loads {
						for _, f := range faults {
							for _, seed := range g.Seeds {
								out = append(out, Point{
									Protocol: proto, Workload: wl,
									Topology: tp, Degree: deg,
									Load: load, Seed: seed, Faults: f,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Key derives a content-address for a run point: the hex SHA-256 of the
// version string and the caller's canonical field encoding, separated
// by NUL bytes so no field concatenation can collide. The version
// (amrt.SimVersion) is folded in so cache entries from an older
// simulation generation can never satisfy a newer binary. It is the
// KeyWriter encoding given whole fields.
func Key(version string, fields ...string) string {
	var buf [512]byte
	k := NewKeyWriter(buf[:0], version)
	for _, f := range fields {
		k.b = append(append(k.b, f...), 0)
	}
	return k.Sum()
}

// KeyWriter builds a Key field by field into one buffer, without
// building each "name=value" string first: Str("load", "0.5") writes
// the bytes Key's field "load=0.5" does.
type KeyWriter struct {
	b []byte
}

// NewKeyWriter starts the key of a point under version, appending into
// buf (a typical key's input fits 512 bytes; a longer one grows it).
func NewKeyWriter(buf []byte, version string) KeyWriter {
	return KeyWriter{b: append(append(buf, version...), 0)}
}

// Str writes the field name=value.
func (k *KeyWriter) Str(name, value string) {
	k.b = append(append(k.name(name), value...), 0)
}

// Int writes the field name=value, value in decimal.
func (k *KeyWriter) Int(name string, value int64) {
	k.b = append(strconv.AppendInt(k.name(name), value, 10), 0)
}

// Float writes the field name=value, value formatted 'g' with 17
// significant digits, so distinct values never share a key.
func (k *KeyWriter) Float(name string, value float64) {
	k.b = append(strconv.AppendFloat(k.name(name), value, 'g', 17, 64), 0)
}

// Bool writes the field name=true or name=false.
func (k *KeyWriter) Bool(name string, value bool) {
	k.b = append(strconv.AppendBool(k.name(name), value), 0)
}

func (k *KeyWriter) name(name string) []byte {
	return append(append(k.b, name...), '=')
}

// Sum returns the key: the hex SHA-256 of everything written.
func (k *KeyWriter) Sum() string {
	sum := sha256.Sum256(k.b)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}
