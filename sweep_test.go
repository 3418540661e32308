package amrt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smallSweep(cacheDir string) SweepConfig {
	return SweepConfig{
		Protocols: []string{"pHost", "AMRT"},
		Loads:     []float64{0.4},
		Seeds:     []int64{1, 2},
		Base:      Config{Workload: "WebServer", Flows: 80, Topology: smallTopo()},
		CacheDir:  cacheDir,
	}
}

func TestSweepCacheResumeByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()

	first, err := Sweep(ctx, smallSweep(dir))
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalPoints != 4 || first.CacheHits != 0 || first.CacheMisses != 4 {
		t.Fatalf("first campaign: %d points, %d hits, %d misses",
			first.TotalPoints, first.CacheHits, first.CacheMisses)
	}
	if len(first.Points) != 4 || len(first.Cells) != 2 {
		t.Fatalf("first campaign: %d points, %d cells", len(first.Points), len(first.Cells))
	}

	second, err := Sweep(ctx, smallSweep(dir))
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 4 || second.CacheMisses != 0 {
		t.Fatalf("resumed campaign recomputed: %d hits, %d misses",
			second.CacheHits, second.CacheMisses)
	}
	for i := range second.Points {
		if !second.Points[i].FromCache {
			t.Errorf("resumed point %d not from cache", i)
		}
		if second.Points[i].Result != first.Points[i].Result {
			t.Errorf("resumed point %d result differs from computed", i)
		}
	}

	// The serialized reports must be byte-identical: cache ledger and
	// FromCache flags are run mechanics, excluded from serialization.
	var a, b bytes.Buffer
	if err := first.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("resumed campaign JSON report differs from computed report")
	}
	var ac, bc bytes.Buffer
	if err := first.WriteCSV(&ac); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ac.Bytes(), bc.Bytes()) {
		t.Error("resumed campaign CSV report differs from computed report")
	}
}

func TestSweepCachedPointMatchesFreshRecompute(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()
	sc := smallSweep(dir)
	if _, err := Sweep(ctx, sc); err != nil {
		t.Fatal(err)
	}
	// Rehydrate the campaign from cache, then recompute one point
	// fresh: the canonical JSON encodings must match byte for byte.
	res, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[2] // AMRT seed 1
	fresh, err := RunContext(ctx, Config{
		Protocol: p.Protocol, Workload: p.Workload, Load: p.Load, Seed: p.Seed,
		Flows: sc.Base.Flows, Topology: sc.Base.Topology,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := json.Marshal(p.Result)
	recomputed, _ := json.Marshal(fresh)
	if !bytes.Equal(cached, recomputed) {
		t.Errorf("cached point diverges from fresh recompute:\n%s\n%s", cached, recomputed)
	}
}

func TestSweepCancelMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := smallSweep(filepath.Join(t.TempDir(), "cache"))
	sc.Workers = 1
	sc.Progress = func(p SweepProgress) {
		if p.Done == 1 {
			cancel()
		}
	}
	res, err := Sweep(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
	if len(res.Points) == 0 || len(res.Points) >= res.TotalPoints {
		t.Errorf("partial result has %d/%d points", len(res.Points), res.TotalPoints)
	}
	if len(res.Cells) == 0 {
		t.Error("partial result has no aggregated cells")
	}
}

func TestSweepValidatesGridUpFront(t *testing.T) {
	_, err := Sweep(context.Background(), SweepConfig{
		Protocols: []string{"AMRT", "QUIC"},
		Base:      Config{Flows: 10, Topology: smallTopo()},
	})
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("err = %v, want ErrUnknownProtocol", err)
	}
}

func TestSweepDefaultsToSinglePoint(t *testing.T) {
	res, err := Sweep(context.Background(), SweepConfig{
		Protocols: []string{"AMRT"},
		Base:      Config{Flows: 60, Topology: smallTopo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPoints != 1 || len(res.Cells) != 1 || res.Cells[0].Seeds != 1 {
		t.Errorf("defaulted sweep: %+v", res)
	}
	if res.CacheHits != 0 || res.CacheMisses != 1 {
		t.Errorf("cache-less sweep ledger: %d hits, %d misses", res.CacheHits, res.CacheMisses)
	}
}

func TestSweepCellAggregation(t *testing.T) {
	res, err := Sweep(context.Background(), smallSweep(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Seeds != 2 {
			t.Errorf("cell %s: %d seeds, want 2", c.Protocol, c.Seeds)
		}
		if c.AFCTUs.Mean <= 0 || c.AFCTUs.Min > c.AFCTUs.Max {
			t.Errorf("cell %s AFCT stats implausible: %+v", c.Protocol, c.AFCTUs)
		}
		if c.Utilization.Mean <= 0 || c.Utilization.Mean > 1 {
			t.Errorf("cell %s utilization %v", c.Protocol, c.Utilization.Mean)
		}
		if c.Completed != c.Total {
			t.Errorf("cell %s completed %d/%d", c.Protocol, c.Completed, c.Total)
		}
	}
	var csvBuf bytes.Buffer
	if err := res.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 { // header + 2 cells
		t.Errorf("CSV has %d lines:\n%s", len(lines), csvBuf.String())
	}
}

// TestSweepKeySeparatesAudit pins the cache-key contract for the
// auditor: an audited point must never satisfy an unaudited one (their
// Events counts differ), so toggling Audit on the same grid and cache
// directory recomputes every point instead of rehydrating.
func TestSweepKeySeparatesAudit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()
	sc := smallSweep(dir)

	first, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != first.TotalPoints {
		t.Fatalf("cold run: %d misses, want %d", first.CacheMisses, first.TotalPoints)
	}

	sc.Base.Audit = true
	second, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 0 || second.CacheMisses != second.TotalPoints {
		t.Fatalf("audited rerun hit the unaudited cache: %d hits, %d misses",
			second.CacheHits, second.CacheMisses)
	}
}

// TestSweepKeyDefaultHomaDegree pins the key's degree field: an unset
// Options.HomaDegree caches as Homa's default, 2 — what the key said
// when the Config.HomaDegree alias still filled it in — so caches
// written before the alias went still hit.
func TestSweepKeyDefaultHomaDegree(t *testing.T) {
	unset := Config{Protocol: "Homa"}.normalized()
	two, four := unset, unset
	two.Options.HomaDegree, four.Options.HomaDegree = 2, 4
	if sweepKey(unset) != sweepKey(two) {
		t.Error("an unset Homa degree and an explicit 2 have different cache keys")
	}
	if sweepKey(unset) == sweepKey(four) {
		t.Error("Homa degrees 2 and 4 share a cache key")
	}
}

// TestSweepCacheSharedAcrossShardCounts pins down sweepKey's deliberate
// exclusion of the Shards axis: the sharded engine produces
// byte-identical results at every shard count, so a 4-shard campaign
// must fully hit a cache populated by a 1-shard campaign (same key ⇒
// same bytes) and report the same measurements — Shards survives only
// as a cell coordinate.
func TestSweepCacheSharedAcrossShardCounts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()

	one := smallSweep(dir)
	one.Shards = []int{1}
	first, err := Sweep(ctx, one)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != first.TotalPoints {
		t.Fatalf("1-shard campaign: %d hits, %d misses of %d points",
			first.CacheHits, first.CacheMisses, first.TotalPoints)
	}

	four := smallSweep(dir)
	four.Shards = []int{4}
	second, err := Sweep(ctx, four)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != second.TotalPoints || second.CacheMisses != 0 {
		t.Fatalf("4-shard campaign against 1-shard cache: %d hits, %d misses of %d points",
			second.CacheHits, second.CacheMisses, second.TotalPoints)
	}
	if len(second.Points) != len(first.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(second.Points), len(first.Points))
	}
	for i := range second.Points {
		if second.Points[i].Result != first.Points[i].Result {
			t.Errorf("point %d result differs between shard counts", i)
		}
		if second.Points[i].Shards != 4 || first.Points[i].Shards != 1 {
			t.Errorf("point %d shard coordinates: got %d and %d, want 4 and 1",
				i, second.Points[i].Shards, first.Points[i].Shards)
		}
	}
}

// TestSweepFaultsByShardsGrid pins the v9 lifting of the faults ×
// shards restriction at the sweep layer: a campaign crossing fault
// specs with shard counts expands, validates, and runs — no
// ErrBadShards — and a repeated run reports 100% cache hits. Because
// the cache key excludes Shards (fault results are shard-count
// independent too), the faulted 2-shard points rehydrate from the
// same entries as their 1-shard twins and carry identical results.
func TestSweepFaultsByShardsGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()
	sc := smallSweep(dir)
	sc.Seeds = []int64{1}
	sc.Faults = []string{"", "ctrl-loss=0.01"}
	sc.Shards = []int{1, 2}

	first, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 1 load × 1 seed × 2 fault specs × 2 shard counts.
	if first.TotalPoints != 8 {
		t.Fatalf("campaign expanded to %d points, want 8", first.TotalPoints)
	}

	second, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != second.TotalPoints || second.CacheMisses != 0 {
		t.Fatalf("repeated faults×shards campaign: %d hits, %d misses of %d points, want all hits",
			second.CacheHits, second.CacheMisses, second.TotalPoints)
	}

	// Group points by (protocol, faults): the 1-shard and 2-shard
	// members of each group must report identical results.
	type cell struct {
		proto, faults string
	}
	byCell := map[cell]map[int]Result{}
	for _, p := range second.Points {
		c := cell{p.Protocol, p.Faults}
		if byCell[c] == nil {
			byCell[c] = map[int]Result{}
		}
		byCell[c][p.Shards] = p.Result
	}
	if len(byCell) != 4 {
		t.Fatalf("campaign covered %d (protocol, faults) cells, want 4", len(byCell))
	}
	for c, byShards := range byCell {
		if len(byShards) != 2 {
			t.Errorf("cell %+v has %d shard coordinates, want 2", c, len(byShards))
			continue
		}
		if byShards[1] != byShards[2] {
			t.Errorf("cell %+v: 1-shard and 2-shard results differ:\n%+v\n%+v",
				c, byShards[1], byShards[2])
		}
	}
}

// TestRunShardedMatchesSingleEngine is the public-API statement of the
// determinism contract: amrt.RunContext with Config.Shards set returns
// exactly the result of the single-engine run, and its telemetry and trace
// dumps are byte-identical too (the metrics dump once regressed here:
// the CLI wrote the caller's registry — one shard's share — instead of
// the merged RunResult.Metrics).
func TestRunShardedMatchesSingleEngine(t *testing.T) {
	dir := t.TempDir()
	dump := func(n int) (Result, string, string) {
		cfg := Config{Protocol: "AMRT", Workload: "WebServer", Flows: 150, Topology: smallTopo(), Seed: 3}
		cfg.Shards = n
		cfg.MetricsPath = filepath.Join(dir, fmt.Sprintf("m%d.json", n))
		cfg.TracePath = filepath.Join(dir, fmt.Sprintf("t%d.csv", n))
		res := mustRun(t, cfg)
		m, err := os.ReadFile(cfg.MetricsPath)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(cfg.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		return res, string(m), string(tr)
	}
	ref, refMetrics, refTrace := dump(1)
	if refMetrics == "" || refTrace == "" {
		t.Fatal("empty single-engine metrics or trace dump")
	}
	for _, n := range []int{2, 4} {
		got, m, tr := dump(n)
		if got != ref {
			t.Errorf("Run with %d shards differs from single-engine result:\n got %+v\nwant %+v", n, got, ref)
		}
		if m != refMetrics {
			t.Errorf("Run with %d shards: metrics dump differs from single-engine dump", n)
		}
		if tr != refTrace {
			t.Errorf("Run with %d shards: trace dump differs from single-engine dump", n)
		}
	}
}
