package workload

// The five realistic workloads of §8.1. The paper specifies their shape
// qualitatively (average sizes from 64 KB to 7.41 MB, more than half of
// flows under 10 KB, heavy tails with >90% of bytes in large flows for
// all but the web-server workload); these CDFs are synthetic instances
// preserving those properties (see DESIGN.md §1 — the published traces
// themselves are not distributable).

// WebServer (WSv): tiny flows below 10 KB plus a uniform 10 KB–1 MB
// body; the smallest average flow size (~64 KB) as the paper states.
func WebServer() *Empirical {
	return NewEmpirical("WebServer", []CDFPoint{
		{100, 0},
		{10_000, 0.882},
		{1_000_000, 1},
	})
}

// CacheFollower (CF): RPC-style traffic, mostly small responses with a
// moderate tail (~0.37 MB mean).
func CacheFollower() *Empirical {
	return NewEmpirical("CacheFollower", []CDFPoint{
		{300, 0},
		{2_000, 0.40},
		{10_000, 0.62},
		{100_000, 0.80},
		{1_000_000, 0.95},
		{10_000_000, 1},
	})
}

// HadoopCluster (HC): shuffle traffic, heavy-tailed (~1.4 MB mean).
func HadoopCluster() *Empirical {
	return NewEmpirical("HadoopCluster", []CDFPoint{
		{250, 0},
		{1_000, 0.30},
		{10_000, 0.55},
		{100_000, 0.75},
		{1_000_000, 0.90},
		{10_000_000, 0.97},
		{50_000_000, 1},
	})
}

// WebSearch (WSc): the classic DCTCP-style distribution (~1.5 MB mean).
func WebSearch() *Empirical {
	return NewEmpirical("WebSearch", []CDFPoint{
		{500, 0},
		{10_000, 0.53},
		{100_000, 0.70},
		{1_000_000, 0.85},
		{10_000_000, 0.96},
		{30_000_000, 1},
	})
}

// DataMining (DM): the most skewed distribution — 80% of flows under
// 10 KB but ~7.4 MB mean, >95% of bytes in the tail. The paper's largest
// gains appear here.
func DataMining() *Empirical {
	return NewEmpirical("DataMining", []CDFPoint{
		{100, 0},
		{1_000, 0.50},
		{10_000, 0.80},
		{100_000, 0.87},
		{1_000_000, 0.92},
		{10_000_000, 0.95},
		{100_000_000, 0.985},
		{600_000_000, 1},
	})
}

// catalog lists the workloads in the order the figures present them
// (WSv, CF, HC, WSc, DM), each with its paper abbreviation and its
// constructor.
var catalog = [...]struct {
	name, abbrev string
	build        func() *Empirical
}{
	{"WebServer", "WSv", WebServer},
	{"CacheFollower", "CF", CacheFollower},
	{"HadoopCluster", "HC", HadoopCluster},
	{"WebSearch", "WSc", WebSearch},
	{"DataMining", "DM", DataMining},
}

// All returns the five workloads in the order the figures present them:
// WSv, CF, HC, WSc, DM.
func All() []*Empirical {
	out := make([]*Empirical, len(catalog))
	for i, w := range catalog {
		out[i] = w.build()
	}
	return out
}

// Names returns the five workload names in the order of All, without
// building any distribution.
func Names() []string {
	out := make([]string, len(catalog))
	for i, w := range catalog {
		out[i] = w.name
	}
	return out
}

// Known reports whether name is one of the five workloads. It builds
// nothing and allocates nothing, so validation can call it per point.
func Known(name string) bool {
	for _, w := range catalog {
		if w.name == name {
			return true
		}
	}
	return false
}

// ByName returns the workload with the given name, or nil. It builds
// only that workload.
func ByName(name string) *Empirical {
	for _, w := range catalog {
		if w.name == name {
			return w.build()
		}
	}
	return nil
}

// Abbrev returns the paper's abbreviation for a workload name.
func Abbrev(name string) string {
	for _, w := range catalog {
		if w.name == name {
			return w.abbrev
		}
	}
	return name
}
