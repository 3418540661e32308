package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testGrid() Grid {
	return Grid{
		Protocols: []string{"pHost", "AMRT"},
		Workloads: []string{"WebSearch"},
		Loads:     []float64{0.3, 0.5},
		Seeds:     []int64{1, 2},
	}
}

// fakeRun returns a deterministic payload/metrics pair derived from the
// point, and counts invocations.
func fakeRun(computes *atomic.Int64) func(context.Context, Point) ([]byte, Metrics, error) {
	return func(_ context.Context, p Point) ([]byte, Metrics, error) {
		computes.Add(1)
		m := Metrics{
			AFCTUs:      p.Load*1000 + float64(p.Seed),
			P99Us:       p.Load*2000 + float64(p.Seed),
			Utilization: p.Load,
			Completed:   100, Total: 100,
		}
		payload, err := json.Marshal(m)
		return payload, m, err
	}
}

func decodeMetrics(payload []byte) (any, Metrics, error) {
	var m Metrics
	err := json.Unmarshal(payload, &m)
	return m, m, err
}

func TestExpandOrderAndCount(t *testing.T) {
	pts := testGrid().Expand()
	if len(pts) != 8 {
		t.Fatalf("Expand: %d points, want 8", len(pts))
	}
	// Seed innermost, then fault, load, workload, protocol outermost.
	want0 := Point{Protocol: "pHost", Workload: "WebSearch", Load: 0.3, Seed: 1}
	want1 := Point{Protocol: "pHost", Workload: "WebSearch", Load: 0.3, Seed: 2}
	want4 := Point{Protocol: "AMRT", Workload: "WebSearch", Load: 0.3, Seed: 1}
	if pts[0] != want0 || pts[1] != want1 || pts[4] != want4 {
		t.Errorf("Expand order wrong:\n%+v", pts)
	}
}

func TestKeyDigest(t *testing.T) {
	a := Key("v1", "protocol=AMRT", "seed=1")
	if b := Key("v1", "protocol=AMRT", "seed=1"); b != a {
		t.Errorf("same inputs produced different keys: %s vs %s", a, b)
	}
	if b := Key("v2", "protocol=AMRT", "seed=1"); b == a {
		t.Error("version change did not change the key")
	}
	if b := Key("v1", "protocol=AMRT", "seed=2"); b == a {
		t.Error("field change did not change the key")
	}
	// NUL separation: field boundaries cannot collide by concatenation.
	if Key("v1", "ab", "c") == Key("v1", "a", "bc") {
		t.Error("field concatenation collided")
	}
	if len(a) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(a))
	}
}

// TestKeyWriterIsKey: writing a key field by field gives the key of
// the same "name=value" fields given whole, for every field kind, and
// pins one digest so the encoding cannot drift under both at once.
func TestKeyWriterIsKey(t *testing.T) {
	k := NewKeyWriter(nil, "v1")
	k.Str("protocol", "AMRT")
	k.Float("load", 0.1)
	k.Int("seed", -3)
	k.Bool("audit", true)
	k.Str("faults", "")
	want := Key("v1", "protocol=AMRT", "load=0.10000000000000001", "seed=-3", "audit=true", "faults=")
	if got := k.Sum(); got != want {
		t.Errorf("KeyWriter key %s, Key gives %s", got, want)
	}
	// The SHA-256 of "v1\x00protocol=AMRT\x00load=0.10000000000000001\x00seed=-3\x00audit=true\x00faults=\x00".
	if want != "aa08170e3ac2c25de14d7065412ee2ee91df4ef16e048cb1a950730559baec40" {
		t.Errorf("Key gives %s", want)
	}
}

// TestCacheRoundTripAndCorruption: a stored payload reads back as
// stored, and every way an entry can be damaged or stale reads as a
// miss, after which a campaign recomputes the point and leaves a valid
// entry behind.
func TestCacheRoundTripAndCorruption(t *testing.T) {
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	cfg.Points = cfg.Points[:1]
	c, key := cfg.Cache, cfg.Key(cfg.Points[0])
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	payload, ok := c.Get(key)
	if !ok || c.Len() != 1 {
		t.Fatalf("Get after a computed point: ok=%v, %d entries", ok, c.Len())
	}
	path := filepath.Join(c.Dir(), key[:2], key+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := bytes.IndexByte(good, '\n')
	if headerLen < 0 || !bytes.Equal(good[headerLen+1:], payload) {
		t.Fatalf("entry is not a header line and the raw payload:\n%s", good)
	}
	sum := sha256.Sum256(payload)
	v1 := new(bytes.Buffer)
	enc := json.NewEncoder(v1)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Version int             `json:"version"`
		Key     string          `json:"key"`
		SHA256  string          `json:"sha256"`
		Result  json.RawMessage `json:"result"`
	}{1, key, hex.EncodeToString(sum[:]), payload}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		entry func() []byte
	}{
		{"empty file", func() []byte { return nil }},
		{"payload truncated mid-way", func() []byte { return good[:headerLen+1+len(payload)/2] }},
		{"one flipped payload byte", func() []byte {
			b := bytes.Clone(good)
			b[headerLen+1+len(payload)/2] ^= 0x01
			return b
		}},
		{"header naming another key", func() []byte {
			return bytes.Replace(good, []byte(key), []byte(Key("test-v1", "other")), 1)
		}},
		{"no header/payload separator", func() []byte {
			return bytes.Replace(good, []byte("\n"), nil, 1)
		}},
		{"version-1 entry", v1.Bytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.entry(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("damaged entry reported a hit")
			}
			computes.Store(0)
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Misses != 1 || computes.Load() != 1 {
				t.Fatalf("re-run: %d misses, %d computes, want 1 and 1", res.Misses, computes.Load())
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
				t.Fatalf("re-run left entry %q (%v), want the original", got, err)
			}
		})
	}

	// An intact entry whose payload no longer decodes is a miss too.
	if err := c.Put(key, []byte(`"stale schema"`)); err != nil {
		t.Fatal(err)
	}
	if res, err := Run(context.Background(), cfg); err != nil || res.Misses != 1 {
		t.Fatalf("undecodable entry: %v, result %+v, want one miss", err, res)
	}

}

func campaignConfig(t *testing.T, dir string, computes *atomic.Int64) Config {
	t.Helper()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Points: testGrid().Expand(),
		Cache:  cache,
		Key: func(p Point) string {
			return Key("test-v1",
				p.Protocol, p.Workload,
				fmt.Sprintf("%.17g", p.Load), fmt.Sprintf("%d", p.Seed), p.Faults)
		},
		Run:    fakeRun(computes),
		Decode: decodeMetrics,
	}
}

func TestRunCacheAccountingAndResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var computes atomic.Int64

	res, err := Run(context.Background(), campaignConfig(t, dir, &computes))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 0 || res.Misses != 8 || computes.Load() != 8 {
		t.Fatalf("first pass: hits=%d misses=%d computes=%d", res.Hits, res.Misses, computes.Load())
	}
	if len(res.Points) != 8 || len(res.Cells) != 4 {
		t.Fatalf("first pass: %d points, %d cells", len(res.Points), len(res.Cells))
	}

	// Second campaign against the same cache: zero recomputation.
	computes.Store(0)
	res2, err := Run(context.Background(), campaignConfig(t, dir, &computes))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Hits != 8 || res2.Misses != 0 {
		t.Fatalf("resume: hits=%d misses=%d", res2.Hits, res2.Misses)
	}
	if computes.Load() != 0 {
		t.Fatalf("resume recomputed %d points, want 0", computes.Load())
	}
	// Rehydrated points must match the computed pass byte-for-byte
	// (modulo the FromCache flag, which is the whole difference).
	for i := range res.Points {
		if string(res.Points[i].Payload) != string(res2.Points[i].Payload) {
			t.Errorf("point %d payload differs after rehydration", i)
		}
		if res.Points[i].Metrics != res2.Points[i].Metrics {
			t.Errorf("point %d metrics differ after rehydration", i)
		}
		if !res2.Points[i].FromCache {
			t.Errorf("point %d not served from cache on resume", i)
		}
		// A hit carries Decode's value; a computed point carries none.
		if res.Points[i].Value != nil || res2.Points[i].Value != res2.Points[i].Metrics {
			t.Errorf("point %d: computed value %v, rehydrated value %v, want nil and the metrics",
				i, res.Points[i].Value, res2.Points[i].Value)
		}
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(res2.Cells)
	if string(a) != string(b) {
		t.Error("rehydrated cell aggregates differ from computed aggregates")
	}
}

func TestRunCancelReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	cfg.Workers = 1
	inner := cfg.Run
	cfg.Run = func(ctx context.Context, p Point) ([]byte, Metrics, error) {
		if computes.Load() == 2 { // cancel before the third compute
			cancel()
			return nil, Metrics{}, ctx.Err()
		}
		return inner(ctx, p)
	}
	res, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Points) != 2 {
		t.Fatalf("partial result has %d points, want 2", len(res.Points))
	}
	for i, o := range res.Points {
		if o.Point != cfg.Points[i] {
			t.Errorf("partial point %d out of order: %+v", i, o.Point)
		}
	}
	if len(res.Cells) == 0 {
		t.Error("partial result has no aggregated cells")
	}
}

func TestRunPointErrorAborts(t *testing.T) {
	boom := errors.New("disk on fire")
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	cfg.Workers = 1
	inner := cfg.Run
	cfg.Run = func(ctx context.Context, p Point) ([]byte, Metrics, error) {
		if computes.Load() == 1 {
			return nil, Metrics{}, boom
		}
		return inner(ctx, p)
	}
	res, err := Run(context.Background(), cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the point error", err)
	}
	if len(res.Points) != 1 {
		t.Errorf("partial result has %d points, want 1", len(res.Points))
	}
}

func TestAggregateCellStats(t *testing.T) {
	mk := func(load float64, seed int64, afct float64) Outcome {
		return Outcome{
			Point:   Point{Protocol: "AMRT", Workload: "W", Load: load, Seed: seed},
			Metrics: Metrics{AFCTUs: afct, Completed: 10, Total: 10, Drops: 1},
		}
	}
	cells := Aggregate([]Outcome{
		mk(0.5, 1, 100), mk(0.5, 2, 300),
		mk(0.7, 1, 400),
	})
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	c := cells[0]
	if c.Seeds != 2 || c.AFCTUs.Mean != 200 || c.AFCTUs.Min != 100 || c.AFCTUs.Max != 300 {
		t.Errorf("cell 0 = %+v", c)
	}
	if c.AFCTUs.CI95 <= 0 {
		t.Error("two-seed cell has zero CI")
	}
	if c.Completed != 20 || c.Total != 20 || c.Drops != 2 {
		t.Errorf("cell 0 counters = %+v", c)
	}
	if cells[1].Seeds != 1 || cells[1].AFCTUs.CI95 != 0 {
		t.Errorf("cell 1 = %+v", cells[1])
	}
	if cells[0].Point.Seed != 0 {
		t.Error("cell coordinate retains a seed")
	}
}

func TestRunProgressCallback(t *testing.T) {
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	var calls int
	var last Progress
	cfg.Progress = func(p Progress) { calls++; last = p }
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Errorf("progress called %d times, want 8", calls)
	}
	if last.Done != 8 || last.Total != 8 || last.Misses != 8 {
		t.Errorf("final progress = %+v", last)
	}
}

func TestRunQuarantineIsolatesPoisonedPoint(t *testing.T) {
	var computes atomic.Int64
	dir := filepath.Join(t.TempDir(), "cache")

	// A clean reference pass over the same grid into a separate cache.
	var refComputes atomic.Int64
	ref, err := Run(context.Background(), campaignConfig(t, filepath.Join(t.TempDir(), "ref"), &refComputes))
	if err != nil {
		t.Fatal(err)
	}

	cfg := campaignConfig(t, dir, &computes)
	cfg.Quarantine = true
	poisoned := cfg.Points[2]
	var calls atomic.Int64
	inner := cfg.Run
	cfg.Run = func(ctx context.Context, p Point) ([]byte, Metrics, error) {
		if p == poisoned {
			calls.Add(1)
			return nil, Metrics{}, errors.New("poisoned cell")
		}
		return inner(ctx, p)
	}
	var last Progress
	updates := 0
	cfg.Progress = func(p Progress) { updates++; last = p }
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("quarantined campaign returned error: %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("poisoned point ran %d times, want 1", calls.Load())
	}
	if len(res.Points) != 7 {
		t.Fatalf("degraded campaign completed %d points, want 7", len(res.Points))
	}
	if len(res.Failed) != 1 || res.Failed[0].Point != poisoned {
		t.Fatalf("quarantine list = %+v", res.Failed)
	}
	if !strings.Contains(res.Failed[0].Error, "poisoned cell") {
		t.Errorf("quarantine record error = %q", res.Failed[0].Error)
	}
	if updates != 8 || last.Done != 8 || last.Failed != 1 {
		t.Errorf("progress: updates=%d last=%+v", updates, last)
	}
	// Every surviving point's payload is byte-identical to the clean run.
	byPoint := map[Point]string{}
	for _, o := range ref.Points {
		byPoint[o.Point] = string(o.Payload)
	}
	for _, o := range res.Points {
		if byPoint[o.Point] != string(o.Payload) {
			t.Errorf("surviving point %+v payload differs from clean run", o.Point)
		}
	}
}

func TestRunCellTimeoutQuarantinesHangingPoint(t *testing.T) {
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	cfg.CellTimeout, cfg.Quarantine = 5*time.Millisecond, true
	hung := cfg.Points[0]
	inner := cfg.Run
	cfg.Run = func(ctx context.Context, p Point) ([]byte, Metrics, error) {
		if p == hung {
			<-ctx.Done() // hang until the per-cell budget expires
			return nil, Metrics{}, ctx.Err()
		}
		return inner(ctx, p)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Point != hung {
		t.Fatalf("quarantine list = %+v", res.Failed)
	}
	if !strings.Contains(res.Failed[0].Error, "cell timeout") {
		t.Errorf("timeout failure not labeled: %q", res.Failed[0].Error)
	}
	if len(res.Points) != 7 {
		t.Errorf("campaign completed %d points, want 7", len(res.Points))
	}
}

func TestRunCellTimeoutStrictAborts(t *testing.T) {
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	cfg.Workers = 1
	cfg.CellTimeout = time.Nanosecond
	res, err := Run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "cell timeout") {
		t.Fatalf("strict cell-timeout campaign err = %v", err)
	}
	if len(res.Points) != 0 {
		t.Errorf("strict cell-timeout campaign completed %d points", len(res.Points))
	}
}

func TestRunQuarantineFailuresInGridOrder(t *testing.T) {
	var computes atomic.Int64
	cfg := campaignConfig(t, filepath.Join(t.TempDir(), "cache"), &computes)
	cfg.Quarantine = true
	cfg.Run = func(ctx context.Context, p Point) ([]byte, Metrics, error) {
		return nil, Metrics{}, fmt.Errorf("always fails")
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != len(cfg.Points) {
		t.Fatalf("%d failures, want %d", len(res.Failed), len(cfg.Points))
	}
	for i, f := range res.Failed {
		if f.Point != cfg.Points[i] {
			t.Errorf("failure %d out of grid order: %+v", i, f.Point)
		}
	}
}
