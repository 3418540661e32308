package workload

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// FlowSpec describes one flow to inject: who, how much, when. Src and
// Dst index into the experiment's host slice.
type FlowSpec struct {
	ID    netsim.FlowID
	Src   int
	Dst   int
	Size  int64
	Start sim.Time

	// Unresponsive marks a sender that announces the flow but never
	// transmits data (§8.2 many-to-many stress).
	Unresponsive bool

	// Deadline is the absolute virtual time by which the flow must
	// complete; 0 means none. A flow that finishes late — or never —
	// counts as a deadline miss in the run result (RPC workloads set
	// it per request).
	Deadline sim.Time

	// After, if nonzero, names the flow whose completion releases this
	// one: the runner injects it Start after the parent flow finishes,
	// so Start is a relative offset, not an absolute time. RPC
	// responses use it to close the request/response loop. A parent
	// that never completes leaves the flow unreleased (reported, and a
	// deadline miss if Deadline is set).
	After netsim.FlowID
}

// PoissonConfig drives the open-loop arrival generator of §8.1: flows
// arrive as a Poisson process whose rate targets a fraction Load of the
// aggregate host capacity, between uniformly random distinct host pairs,
// with sizes drawn from Dist.
type PoissonConfig struct {
	Hosts    int      // number of hosts to draw pairs from
	Load     float64  // target offered load in (0, 1]
	HostRate sim.Rate // per-host access link rate
	Dist     Dist
	Count    int   // number of flows to generate
	Seed     int64 // RNG seed; arrivals/sizes/pairs use derived streams
}

// GeneratePoisson produces Count flow specs. The aggregate arrival rate
// is chosen so that expected offered bytes equal Load × Hosts × HostRate:
// λ = Load · Hosts · HostRate / (8 · E[size]).
func GeneratePoisson(cfg PoissonConfig) []FlowSpec {
	if cfg.Hosts < 2 {
		panic("workload: Poisson traffic needs at least 2 hosts")
	}
	if cfg.Load <= 0 {
		panic("workload: load must be positive")
	}
	arrRNG := sim.NewRNG(sim.SubSeed(cfg.Seed, "arrivals"))
	sizeRNG := sim.NewRNG(sim.SubSeed(cfg.Seed, "sizes"))
	pairRNG := sim.NewRNG(sim.SubSeed(cfg.Seed, "pairs"))

	lambda := cfg.Load * float64(cfg.Hosts) * float64(cfg.HostRate) / (8 * cfg.Dist.Mean())
	meanGap := sim.Time(float64(sim.Second) / lambda)

	flows := make([]FlowSpec, 0, cfg.Count)
	t := sim.Time(0)
	for i := 0; i < cfg.Count; i++ {
		t += sim.Exponential(arrRNG, meanGap)
		src := pairRNG.Intn(cfg.Hosts)
		dst := pairRNG.Intn(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		size := cfg.Dist.Sample(sizeRNG)
		if size < 1 {
			size = 1
		}
		flows = append(flows, FlowSpec{
			ID:    netsim.FlowID(i + 1),
			Src:   src,
			Dst:   dst,
			Size:  size,
			Start: t,
		})
	}
	return flows
}

// ManyToMany produces the §8.2 pattern: every sender opens ConnsPerSender
// flows to distinct receivers (round-robin with a per-sender offset so
// receivers are evenly loaded), all starting at Start with sizes from
// Dist.
func ManyToMany(senders, receivers []int, connsPerSender int, d Dist, start sim.Time, seed int64) []FlowSpec {
	if connsPerSender > len(receivers) {
		panic(fmt.Sprintf("workload: %d connections per sender but only %d receivers", connsPerSender, len(receivers)))
	}
	sizeRNG := sim.NewRNG(sim.SubSeed(seed, "m2m-sizes"))
	var flows []FlowSpec
	id := netsim.FlowID(1)
	for si, s := range senders {
		for c := 0; c < connsPerSender; c++ {
			r := receivers[(si*connsPerSender+c)%len(receivers)]
			flows = append(flows, FlowSpec{
				ID: id, Src: s, Dst: r, Size: d.Sample(sizeRNG), Start: start,
			})
			id++
		}
	}
	return flows
}

// Incast produces n synchronized flows of the same size converging on
// one receiver — the partition/aggregate burst.
func Incast(senders []int, receiver int, size int64, start sim.Time) []FlowSpec {
	flows := make([]FlowSpec, len(senders))
	for i, s := range senders {
		flows[i] = FlowSpec{ID: netsim.FlowID(i + 1), Src: s, Dst: receiver, Size: size, Start: start}
	}
	return flows
}
