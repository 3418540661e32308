package amrt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestValidateErrorTable(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero config", Config{}, nil},
		{"full valid", Config{Protocol: "NDP", Workload: "DataMining", Load: 1, Flows: 10, Seed: 3}, nil},
		{"dctcp contrast stack", Config{Protocol: "DCTCP"}, nil},
		{"valid faults", Config{Faults: "ctrl-loss=0.01"}, nil},
		{"faults on sharded run", Config{Faults: "ctrl-loss=0.01", Shards: 4}, nil},
		{"node faults on sharded run", Config{Faults: "rehash=1ms", Shards: 2}, nil},
		{"shards out of range", Config{Shards: 1000}, ErrBadShards},
		{"unknown protocol", Config{Protocol: "QUIC"}, ErrUnknownProtocol},
		{"unknown workload", Config{Workload: "nope"}, ErrUnknownWorkload},
		{"load negative", Config{Load: -0.1}, ErrBadLoad},
		{"load above one", Config{Load: 1.5}, ErrBadLoad},
		{"load NaN", Config{Load: math.NaN()}, ErrBadLoad},
		{"flows negative", Config{Flows: -5}, ErrBadFlows},
		{"bad fault spec", Config{Faults: "link=???"}, ErrBadFaultSpec},
		{"unknown fault class", Config{Faults: "meteor=1"}, ErrBadFaultSpec},
		{"sird run with sird knobs", Config{Protocol: "SIRD", Options: StackOptions{SIRDPoolBytes: 1 << 20, SIRDStalenessRTTs: 4}}, nil},
		{"homa run with typed degree", Config{Protocol: "Homa", Options: StackOptions{HomaDegree: 4}}, nil},
		{"homa knob on sird run", Config{Protocol: "SIRD", Options: StackOptions{HomaDegree: 4}}, ErrBadStackOption},
		{"sird knob on amrt run", Config{Protocol: "AMRT", Options: StackOptions{SIRDPoolBytes: 1 << 20}}, ErrBadStackOption},
		{"sird knob on homa run", Config{Protocol: "Homa", Options: StackOptions{SIRDStalenessRTTs: 4}}, ErrBadStackOption},
		{"negative homa degree", Config{Protocol: "Homa", Options: StackOptions{HomaDegree: -2}}, ErrBadStackOption},
		{"negative sird pool", Config{Protocol: "SIRD", Options: StackOptions{SIRDPoolBytes: -1}}, ErrBadStackOption},
		{"negative timeout", Config{Timeout: -time.Second}, ErrBadDuration},
		{"negative metrics interval", Config{MetricsInterval: -time.Microsecond}, ErrBadDuration},
		{"tiered fat-tree", Config{Topology: Topology{Kind: "fattree", LinkGbps: 25, FabricGbps: 100, CoreGbps: 400, RTT: 50 * time.Microsecond}}, nil},
		{"negative fat-tree arity", Config{Topology: Topology{Kind: "fattree", K: -2}}, ErrBadTopology},
		{"negative rtt", Config{Topology: Topology{RTT: -time.Microsecond}}, ErrBadTopology},
		{"negative link rate", Config{Topology: Topology{LinkGbps: -10}}, ErrBadTopology},
		{"negative fabric rate", Config{Topology: Topology{Kind: "fattree", FabricGbps: -1}}, ErrBadTopology},
		{"negative core rate", Config{Topology: Topology{Kind: "clos", CoreGbps: -1}}, ErrBadTopology},
		{"NaN core rate", Config{Topology: Topology{Kind: "clos", CoreGbps: math.NaN()}}, ErrBadTopology},
		{"infinite fabric rate", Config{Topology: Topology{Kind: "fattree", FabricGbps: math.Inf(1)}}, ErrBadTopology},
		{"overflowing link rate", Config{Topology: Topology{LinkGbps: 1e300}}, ErrBadTopology},
		{"sub-bit/s link rate", Config{Topology: Topology{LinkGbps: 1e-12}}, ErrBadTopology},
		{"10 Gbit/s at 1s RTT overflows the BDP", Config{Topology: Topology{RTT: time.Second}}, ErrBadTopology},
		{"1 Pbit/s at the default RTT overflows the BDP", Config{Topology: Topology{LinkGbps: 1e6}}, ErrBadTopology},
		{"fat-tree core rate overflows the BDP", Config{Topology: Topology{Kind: "fattree", CoreGbps: 1e6}}, ErrBadTopology},
		{"clos fabric rate overflows the BDP", Config{Topology: Topology{Kind: "clos", FabricGbps: 2e5}}, ErrBadTopology},
		{"9 Gbit/s at 1s RTT fits the BDP", Config{Topology: Topology{LinkGbps: 9, RTT: time.Second}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestValidateShardsText: the range an out-of-range shard count is told
// is the range Validate accepts, 0 (one engine) included.
func TestValidateShardsText(t *testing.T) {
	for _, shards := range []int{0, 1, 256} {
		if err := (Config{Shards: shards}).Validate(); err != nil {
			t.Errorf("Shards %d: %v, want accepted", shards, err)
		}
	}
	for _, shards := range []int{-1, 257} {
		err := (Config{Shards: shards}).Validate()
		want := fmt.Sprintf("bad shard count: %d (want 0..256)", shards)
		if !errors.Is(err, ErrBadShards) || err.Error() != want {
			t.Errorf("Shards %d: %v, want %q", shards, err, want)
		}
	}
}

func TestRunContextRejectsBadInputWithoutPanic(t *testing.T) {
	_, err := RunContext(context.Background(), Config{Protocol: "QUIC"})
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("RunContext err = %v", err)
	}
	_, err = RunContext(context.Background(), Config{Faults: "meteor=1", Flows: 10, Topology: smallTopo()})
	if !errors.Is(err, ErrBadFaultSpec) {
		t.Fatalf("RunContext err = %v", err)
	}
	_, err = CompareContext(context.Background(), Config{Workload: "nope"})
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("CompareContext err = %v", err)
	}
}

// TestRunContextSurfacesFaultResolutionError pins the v9 error
// contract for fault plans that parse but name nothing in the built
// topology: the runner returns the resolution failure as an error
// (wrapped in ErrBadFaultSpec) instead of panicking, at every shard
// count — the path serve surfaces to clients as HTTP 400.
func TestRunContextSurfacesFaultResolutionError(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := Config{
			Flows:    10,
			Topology: smallTopo(),
			Faults:   "link=nosuch0->nowhere0,down=1ms,up=2ms",
			Shards:   shards,
		}
		_, err := RunContext(context.Background(), cfg)
		if !errors.Is(err, ErrBadFaultSpec) {
			t.Errorf("shards=%d: err = %v, want errors.Is(err, ErrBadFaultSpec)", shards, err)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Flows: 50, Topology: smallTopo()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext err = %v", err)
	}
}

func TestCompareContextPaperOrder(t *testing.T) {
	results, err := CompareContext(context.Background(),
		Config{Flows: 120, Topology: smallTopo(), Workload: "CacheFollower"})
	if err != nil {
		t.Fatal(err)
	}
	protos := Protocols()
	if len(results) != len(protos) {
		t.Fatalf("%d results, want %d", len(results), len(protos))
	}
	for i, r := range results {
		if r.Protocol != protos[i] {
			t.Errorf("result %d is %s, want %s (paper order)", i, r.Protocol, protos[i])
		}
		if r.Completed == 0 {
			t.Errorf("%s completed no flows", r.Protocol)
		}
	}
}

func TestWithProtoSuffix(t *testing.T) {
	cases := []struct{ path, want string }{
		{"", ""},
		{"out.json", "out.AMRT.json"},
		{"out", "out.AMRT"},
		{"./dir/out", "./dir/out.AMRT"},
		{"./dir.v2/out", "./dir.v2/out.AMRT"},
		{"a.b/c.csv", "a.b/c.AMRT.csv"},
		{".trace", ".trace.AMRT"},
		{"./dir/.trace", "./dir/.trace.AMRT"},
	}
	for _, tc := range cases {
		if got := withProtoSuffix(tc.path, "AMRT"); got != tc.want {
			t.Errorf("withProtoSuffix(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}
