package amrt_test

import (
	"context"
	"fmt"
	"time"

	"amrt"
)

// Run a single simulation and read its headline metrics.
func ExampleRunContext() {
	res, err := amrt.RunContext(context.Background(), amrt.Config{
		Protocol: "AMRT",
		Workload: "WebServer",
		Load:     0.4,
		Flows:    200,
		Seed:     7,
		Topology: amrt.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Protocol, res.Workload, res.Completed == res.Total)
	// Output: AMRT WebServer true
}

// Compare every protocol on byte-identical traffic.
func ExampleCompareContext() {
	results, err := amrt.CompareContext(context.Background(), amrt.Config{
		Workload: "CacheFollower",
		Flows:    150,
		Topology: amrt.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	done := 0
	for _, r := range results {
		if r.Completed == r.Total {
			done++
		}
	}
	fmt.Println(len(results), done)
	// Output: 5 5
}

// Evaluate the paper's §5 analytical model.
func ExampleGain() {
	uMin, uMax, _, _ := amrt.Gain(1_000_000, 0.5, 1, 100*time.Microsecond)
	fmt.Printf("%.2f %.2f\n", uMin, uMax)
	// Output: 1.97 1.99
}

// Enumerate supported protocols and workloads.
func ExampleProtocols() {
	fmt.Println(amrt.Protocols())
	fmt.Println(len(amrt.Workloads()))
	// Output:
	// [pHost Homa NDP AMRT SIRD]
	// 5
}
