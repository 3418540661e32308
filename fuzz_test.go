package amrt

import (
	"errors"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTopology hammers the topology-spec grammar with arbitrary
// input. The contract: ParseTopology never panics, a rejected spec
// wraps ErrBadTopology, and an accepted spec resolves to a buildable
// topology with positive rates on every tier whose re-parse accepts the
// same bytes (sweep specs travel as raw strings through serve job
// payloads and cache keys).
func FuzzParseTopology(f *testing.F) {
	// Seed corpus: the documented example specs (docs/TOPOLOGIES.md and
	// the ParseTopology doc comment) plus separator edge shapes.
	for _, seed := range []string{
		"",
		"fattree",
		"fattree:k=8",
		"fattree:k=4,gbps=100,rtt=100us",
		"leafspine",
		"leafspine:leaves=4,spines=4,hosts=10",
		"leafspine:leaves=2,spines=2,hosts=4,gbps=40,fabric=100,rtt=20us",
		"clos:pods=4,leaves=4,aggs=2,cores=4,hosts=16,gbps=25,fabric=100",
		"clos:pods=2,leaves=2,aggs=2,cores=2,hosts=4,core=400",
		"fattree:",
		"fattree:k",
		"fattree:k=",
		"fattree:k=0",
		"fattree:k=3",
		"ring:n=8",
		":k=4",
		"fattree:fabric=inf",
		"leafspine:gbps=1e300",
		"clos:core=NaN",
		"leafspine:rtt=1s",
		"leafspine:gbps=1e6",
		"fattree:core=1e6",
		"clos:fabric=2e5,rtt=100us",
		"leafspine:gbps=9,rtt=1s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		t1, err := ParseTopology(spec)
		if err != nil {
			if !errors.Is(err, ErrBadTopology) {
				t.Fatalf("ParseTopology(%q) = %v, want an ErrBadTopology", spec, err)
			}
			return
		}
		t2, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q) accepted once, rejected on re-parse: %v", spec, err)
		}
		if t1 != t2 {
			t.Fatalf("ParseTopology(%q) is not stable: %+v vs %+v", spec, t1, t2)
		}
		// An accepted spec resolves to positive rates on every tier, each
		// with a bandwidth-delay product (bit/s × ns of the fabric's RTT)
		// that fits int64: the canonical form lists each rate after
		// defaulting, and the link delay.
		b, err := t1.builder()
		if err != nil {
			t.Fatalf("ParseTopology(%q) accepted a spec its builder rejects: %v", spec, err)
		}
		kind, fields, _ := strings.Cut(b.Canonical(), ":")
		var rates []uint64
		var rtt uint64
		for _, kv := range strings.Split(fields, ",") {
			key, val, _ := strings.Cut(kv, "=")
			n, err := strconv.ParseInt(val, 10, 64)
			switch {
			case strings.HasSuffix(key, "rate"):
				if err != nil || n <= 0 {
					t.Fatalf("ParseTopology(%q) resolves %s=%s, want a positive rate", spec, key, val)
				}
				rates = append(rates, uint64(n))
			case key == "linkdelay":
				hops := uint64(12)
				if kind == "leafspine" {
					hops = 8
				}
				rtt = hops * uint64(n)
			}
		}
		for _, r := range rates {
			if hi, lo := bits.Mul64(r, rtt); hi != 0 || lo > math.MaxInt64 {
				t.Fatalf("ParseTopology(%q) accepts rate %d bit/s × RTT %d ns, which overflows int64", spec, r, rtt)
			}
		}
	})
}
