package amrt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
	sameReports(t, first, second)
}

// sameReports fails the test unless got's WriteJSON and WriteCSV bytes
// equal want's.
func sameReports(t *testing.T, want, got *SweepResult) {
	t.Helper()
	for _, w := range []struct {
		name  string
		write func(*SweepResult, io.Writer) error
	}{{"JSON", (*SweepResult).WriteJSON}, {"CSV", (*SweepResult).WriteCSV}} {
		var a, b bytes.Buffer
		if err := w.write(want, &a); err != nil {
			t.Fatal(err)
		}
		if err := w.write(got, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s report differs:\n%s\nwant:\n%s", w.name, b.Bytes(), a.Bytes())
		}
	}
}

// TestSweepPartlyCachedReportsSameBytes: a re-run that finds some of
// its entries and recomputes the rest — the one place a report mixes
// decoded hits with computed points — writes the cold run's bytes.
func TestSweepPartlyCachedReportsSameBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()
	sc := smallSweep(dir)
	cold, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, resolved, err := sc.resolve()
	if err != nil {
		t.Fatal(err)
	}
	deleted := map[int]bool{0: true, 3: true}
	for i := range deleted {
		key := resolved[i].key
		if err := os.Remove(filepath.Join(dir, key[:2], key+".json")); err != nil {
			t.Fatal(err)
		}
	}
	mixed, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.CacheMisses != 2 || mixed.CacheHits != mixed.TotalPoints-2 {
		t.Fatalf("re-run: %d hits, %d misses of %d points, want %d and 2",
			mixed.CacheHits, mixed.CacheMisses, mixed.TotalPoints, mixed.TotalPoints-2)
	}
	for i, p := range mixed.Points {
		if p.FromCache == deleted[i] {
			t.Errorf("point %d (%s): FromCache %v", i, p.SweepCoord, p.FromCache)
		}
	}
	sameReports(t, cold, mixed)
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
// exclusion of Base.Shards: the sharded engine produces byte-identical
// results at every shard count, so a campaign run at Base.Shards 4 must
// fully hit a cache populated at Base.Shards 1 (same key ⇒ same bytes)
// and report the same points.
func TestSweepCacheSharedAcrossShardCounts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()
	sc := smallSweep(dir)

	sc.Base.Shards = 1
	first, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != first.TotalPoints {
		t.Fatalf("1-shard campaign: %d hits, %d misses of %d points",
			first.CacheHits, first.CacheMisses, first.TotalPoints)
	}

	sc.Base.Shards = 4
	second, err := Sweep(ctx, sc)
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
		if second.Points[i].SweepCoord != first.Points[i].SweepCoord || second.Points[i].Result != first.Points[i].Result {
			t.Errorf("point %d differs between shard counts:\n%+v\n%+v", i, first.Points[i], second.Points[i])
		}
	}
}

// TestSweepFaultsByShardsGrid: a grid crossing fault specs runs at any
// Base.Shards — no ErrBadShards — and, fault cells included, gives the
// same points whether computed at 2 shards or at 1, so a cache
// populated at one shard count serves the other with all hits.
func TestSweepFaultsByShardsGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ctx := context.Background()
	sc := smallSweep(dir)
	sc.Seeds = []int64{1}
	sc.Faults = []string{"", "ctrl-loss=0.01"}

	sc.Base.Shards = 2
	sharded, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols × 1 load × 1 seed × 2 fault specs.
	if sharded.TotalPoints != 4 || sharded.CacheMisses != 4 {
		t.Fatalf("2-shard campaign: %d misses of %d points, want 4 of 4",
			sharded.CacheMisses, sharded.TotalPoints)
	}

	// Computed afresh at one shard, the points must match the sharded run.
	sc.Base.Shards = 1
	sc.CacheDir = ""
	single, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.CacheDir = dir
	cached, err := Sweep(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if cached.CacheHits != cached.TotalPoints || cached.CacheMisses != 0 {
		t.Fatalf("1-shard campaign against 2-shard cache: %d hits, %d misses of %d points, want all hits",
			cached.CacheHits, cached.CacheMisses, cached.TotalPoints)
	}
	same := func(a, b SweepPoint) bool { return a.SweepCoord == b.SweepCoord && a.Result == b.Result }
	for i := range sharded.Points {
		if !same(single.Points[i], sharded.Points[i]) || !same(cached.Points[i], sharded.Points[i]) {
			t.Errorf("point %d differs between shard counts:\n2 shards: %+v\n1 shard:  %+v\ncached:   %+v",
				i, sharded.Points[i], single.Points[i], cached.Points[i])
		}
	}
}

// TestSweepSeedZeroRunsAsOne: Config runs seed 0 as seed 1, so a grid
// reports such a point as seed 1, and a Seeds axis naming both 0 and 1
// — the same run twice, which would aggregate as two seeds with a zero
// confidence interval — is refused, naming the point.
func TestSweepSeedZeroRunsAsOne(t *testing.T) {
	sc := smallSweep("")
	sc.Protocols = []string{"AMRT"}
	sc.Seeds = []int64{0}
	res, err := Sweep(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Seed; got != 1 {
		t.Errorf("seed 0 point reported as seed %d, want 1", got)
	}
	sc.Seeds = []int64{0, 1}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "seed=1") {
		t.Errorf("Validate with Seeds {0, 1} = %v, want a repeated seed=1 point error", err)
	}
}

// TestSweepRefusesDuplicatePoints: a grid in which two points are the
// same run — a value repeated on any axis, or an axis value that names
// what the base runs anyway — is refused before anything runs, naming
// both coordinates. Counted twice, the run would pass for two seeds.
func TestSweepRefusesDuplicatePoints(t *testing.T) {
	const one = "AMRT WebServer load=0.4 seed=1"
	cases := []struct {
		name string
		set  func(*SweepConfig)
		a, b string
	}{
		{"repeated load", func(sc *SweepConfig) { sc.Loads = []float64{0.4, 0.4} }, one, one},
		{"repeated protocol", func(sc *SweepConfig) { sc.Protocols = []string{"AMRT", "AMRT"}; sc.Seeds = []int64{1, 2} }, one, one},
		{"repeated workload", func(sc *SweepConfig) { sc.Workloads = []string{"WebServer", "WebServer"} }, one, one},
		{"repeated fault spec", func(sc *SweepConfig) { sc.Faults = []string{"", ""} }, one, one},
		{"seed 0 beside 1", func(sc *SweepConfig) { sc.Seeds = []int64{0, 1} }, one, one},
		{"the base's degree", func(sc *SweepConfig) { sc.Degrees = []int{0, 32} },
			one, "AMRT WebServer degree=32 load=0.4 seed=1"},
		{"the base's topology", func(sc *SweepConfig) { sc.Topologies = []string{"", "leafspine:leaves=2,spines=2,hosts=5"} },
			one, "AMRT WebServer topo=leafspine:leaves=2,spines=2,hosts=5 load=0.4 seed=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := smallSweep("")
			sc.Protocols, sc.Seeds = []string{"AMRT"}, []int64{1}
			tc.set(&sc)
			want := fmt.Sprintf("%q and %q", tc.a, tc.b)
			if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Validate = %v, want an error naming %s", err, want)
			}
			sc.Progress = func(p SweepProgress) { t.Errorf("point %s ran", p.Point) }
			if res, err := Sweep(context.Background(), sc); res != nil || err == nil {
				t.Errorf("Sweep = %v, %v; want no result and the error", res, err)
			}
		})
	}
}

// TestSweepCoordString: the one rendering of a coordinate, which the
// CLI's progress and FAILED lines print, shows every non-zero field and
// no zero one.
func TestSweepCoordString(t *testing.T) {
	fields := []struct {
		set  func(*SweepCoord)
		want string
	}{
		{func(c *SweepCoord) { c.Protocol = "NDP" }, "NDP"},
		{func(c *SweepCoord) { c.Workload = "WebServer" }, "WebServer"},
		{func(c *SweepCoord) { c.Topology = "fattree:k=4" }, "topo=fattree:k=4"},
		{func(c *SweepCoord) { c.Degree = 8 }, "degree=8"},
		{func(c *SweepCoord) { c.Load = 0.35 }, "load=0.35"},
		{func(c *SweepCoord) { c.Seed = 2 }, "seed=2"},
		{func(c *SweepCoord) { c.Faults = "ctrl-loss=0.01" }, "faults=ctrl-loss=0.01"},
	}
	if n := reflect.TypeOf(SweepCoord{}).NumField(); n != len(fields) {
		t.Fatalf("SweepCoord has %d fields, the test covers %d", n, len(fields))
	}
	if got := (SweepCoord{}).String(); got != "" {
		t.Errorf("zero coordinate renders %q, want empty", got)
	}
	var all SweepCoord
	var want []string
	for _, f := range fields {
		var one SweepCoord
		f.set(&one)
		if got := one.String(); got != f.want {
			t.Errorf("coordinate with one field set renders %q, want %q", got, f.want)
		}
		f.set(&all)
		want = append(want, f.want)
	}
	if got := all.String(); got != strings.Join(want, " ") {
		t.Errorf("full coordinate renders %q, want %q", got, strings.Join(want, " "))
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
