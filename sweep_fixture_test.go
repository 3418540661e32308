package amrt

import (
	"bytes"
	"context"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/sweep_cache and testdata/sweep_cache.golden from this build's runs")

// fixtureSweeps are the campaigns whose cache entries and reports are
// committed under testdata: leaf-spine, fat-tree and clos fabrics;
// poisson, incast and rpc patterns; non-default Homa and SIRD options;
// a fault spec with a crash. Between them the entries carry non-zero
// drops, trims, kills and missed deadlines.
var fixtureSweeps = []struct {
	name string
	sc   SweepConfig
}{
	{"poisson", SweepConfig{
		Protocols:  []string{"AMRT", "Homa", "SIRD"},
		Workloads:  []string{"WebServer"},
		Topologies: []string{"leafspine:leaves=2,spines=2,hosts=4", "fattree:k=4"},
		Loads:      []float64{0.5},
		Seeds:      []int64{1, 2},
		Base: Config{Flows: 20, Options: StackOptions{
			HomaDegree: 4, SIRDPoolBytes: 96 << 10, SIRDStalenessRTTs: 4,
		}},
	}},
	{"incast", SweepConfig{
		Protocols:  []string{"pHost", "NDP"},
		Topologies: []string{"clos:pods=2,leaves=2,aggs=2,cores=2,hosts=4"},
		Degrees:    []int{4, 8},
		Faults:     []string{"", "ctrl-loss=0.01;crash=h0.1.1,at=100us,up=2ms"},
		Base:       Config{Pattern: "incast", Flows: 16},
	}},
	{"rpc", SweepConfig{
		Protocols: []string{"DCTCP", "AMRT"},
		Loads:     []float64{0.3, 0.6},
		Base: Config{Pattern: "rpc", Flows: 20, RPCDeadline: 300 * time.Microsecond,
			Topology: Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 4}},
	}},
}

// TestSweepCacheFixture reads a cache an earlier build wrote: every
// point of fixtureSweeps is a hit, every committed entry is used, and
// the reports are byte-identical to the ones that build wrote. It holds
// keys, entry layout and the payload decoder to the committed bytes
// together; TestSweepKeyCoversConfig only checks which fields a key
// covers. Only a SimVersion bump regenerates the fixture (go test -run
// TestSweepCacheFixture -update); a change that makes it miss under an
// unchanged SimVersion has broken every cache users hold.
func TestSweepCacheFixture(t *testing.T) {
	const cacheDir, golden = "testdata/sweep_cache", "testdata/sweep_cache.golden"
	dir := cacheDir
	if *updateFixture {
		if err := os.RemoveAll(cacheDir); err != nil {
			t.Fatal(err)
		}
	} else {
		// Read a copy: a miss would write into the committed fixture.
		dir = filepath.Join(t.TempDir(), "cache")
		copyTree(t, dir, cacheDir)
	}
	var report bytes.Buffer
	points := 0
	for _, f := range fixtureSweeps {
		sc := f.sc
		sc.CacheDir = dir
		res, err := Sweep(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		points += res.TotalPoints
		if !*updateFixture && (res.CacheHits != res.TotalPoints || res.CacheMisses != 0) {
			t.Errorf("%s: %d hits and %d misses of %d points, want all hits (SimVersion %s; regenerate only on a bump)",
				f.name, res.CacheHits, res.CacheMisses, res.TotalPoints, SimVersion)
		}
		report.WriteString("== " + f.name + " json\n")
		if err := res.WriteJSON(&report); err != nil {
			t.Fatal(err)
		}
		report.WriteString("== " + f.name + " csv\n")
		if err := res.WriteCSV(&report); err != nil {
			t.Fatal(err)
		}
	}
	entries := 0
	if err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			entries++
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if entries != points {
		t.Errorf("cache holds %d entries for %d points", entries, points)
	}
	if *updateFixture {
		if err := os.WriteFile(golden, report.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report.Bytes(), want) {
		t.Errorf("reports from the committed cache differ from %s:\n%s", golden, report.Bytes())
	}
}

// copyTree copies the regular files under src to the same relative
// paths under dst.
func copyTree(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
