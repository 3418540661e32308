package amrt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"testing"
	"time"

	"amrt/internal/experiment"
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

// FuzzDecodePoint holds the sweep payload's cell record to a round
// trip both ways: any bytes decodePoint accepts re-encode to exactly
// themselves, and any Result the fuzzer builds comes back from
// decodePoint(encodePoint(r)) bit for bit, floats by Float64bits, so
// −0 and every NaN included. Each seed Result also seeds its
// json.Marshal bytes, the payload an amrt-sim/v10 cache held.
func FuzzDecodePoint(f *testing.F) {
	seeds := []Result{
		{},
		{Protocol: "AMRT", Workload: "WebServer", Load: 0.5, Completed: 400, Total: 400,
			AFCT: 123456 * time.Nanosecond, P99: time.Millisecond, Utilization: 0.4321,
			Drops: 3, Trims: 9, Events: 1 << 20, Stalled: 1, Killed: 2, DeadlineTotal: 7, DeadlineMissed: 5},
		{Load: math.MaxFloat64, Completed: math.MaxInt, Total: math.MinInt, AFCT: math.MaxInt64,
			P99: math.MinInt64, Utilization: 1e21, Drops: math.MaxInt64, Trims: math.MinInt64,
			Events: math.MaxUint64, Stalled: -1, DeadlineTotal: math.MaxInt},
		{Load: 5e-324, Utilization: 1e-7, AFCT: -1, P99: -time.Second, Killed: -7},
		{Load: -0.0, Utilization: 9.999999999999999e20},
		{Load: math.Copysign(0, -1), Utilization: math.NaN()},
		{Load: 1e-6, Utilization: 0.000000999999999},
		{Protocol: strings.Repeat("p", 255), Workload: strings.Repeat("w", 255)},
		{Protocol: "a\"b\\c\b\f\n\r\t\x01\x1f<>&\u2028\u2029\ufffdé\U0001F600", Workload: "\xff\xfe"},
	}
	for _, name := range append(experiment.StackNames(), Workloads()...) {
		seeds = append(seeds, Result{Protocol: name, Workload: name})
	}
	for _, r := range seeds {
		b, err := encodePoint(r)
		if err != nil {
			f.Fatal(err)
		}
		j, _ := json.Marshal(r) // NaN has no JSON: j is then empty
		for _, b := range [][]byte{b, j} {
			f.Add(b, r.Protocol, r.Workload, math.Float64bits(r.Load), math.Float64bits(r.Utilization), int64(r.AFCT), r.Events)
		}
	}
	f.Add([]byte{}, strings.Repeat("x", 256), "", uint64(0), uint64(0), int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, b []byte, proto, wl string, load, util uint64, afct int64, events uint64) {
		if got, err := decodePoint(b); err == nil {
			if enc, err := encodePoint(got); err != nil || !bytes.Equal(enc, b) {
				t.Fatalf("decodePoint(%x) = %+v, which encodes to %x (%v)", b, got, enc, err)
			}
		}
		// The other fields take the fuzzed words too, in turn, so every
		// word's position is exercised at its extremes.
		want := Result{Protocol: proto, Workload: wl, Load: math.Float64frombits(load),
			Completed: int(afct), Total: int(^afct), AFCT: time.Duration(afct), P99: time.Duration(events),
			Utilization: math.Float64frombits(util), Drops: int64(load), Trims: int64(util), Events: events,
			Stalled: int(events), Killed: int(load), DeadlineTotal: int(util), DeadlineMissed: -int(afct)}
		enc, err := encodePoint(want)
		if long := len(proto) > 255 || len(wl) > 255; long != (err != nil) {
			t.Fatalf("encodePoint with names of %d and %d bytes: %v", len(proto), len(wl), err)
		}
		if err != nil {
			return
		}
		got, err := decodePoint(enc)
		if err != nil {
			t.Fatalf("decodePoint(encodePoint(%+v) = %x): %v", want, enc, err)
		}
		sameFloats := math.Float64bits(got.Load) == load && math.Float64bits(got.Utilization) == util
		g, w := got, want
		g.Load, g.Utilization, w.Load, w.Utilization = 0, 0, 0, 0
		if !sameFloats || g != w {
			t.Fatalf("decodePoint(encodePoint(r)) = %+v, want %+v", got, want)
		}
	})
}
