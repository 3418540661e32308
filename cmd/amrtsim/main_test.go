package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestCompareGolden pins `amrtsim -compare -workload WebServer -flows
// 300` byte for byte. The five stacks run one after another in this
// process, so every stack after the first draws its link jitter from
// streams an earlier run handed back (netsim.Network.Release). The
// golden is the output of the binary built at the commit before jitter
// streams were recycled; a deliberate behaviour change (SimVersion bump)
// regenerates it with -update.
func TestCompareGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runMain([]string{"-compare", "-workload", "WebServer", "-flows", "300"}, &stdout, &stderr)
	if code != 0 || stderr.Len() > 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	path := filepath.Join("testdata", "compare_webserver.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("amrtsim -compare differs from %s:\n%s", path, stdout.Bytes())
	}
}

// TestServeRefusesBadSpecs: the daemon's submission check (specToSweep,
// then Validate; an error is HTTP 400) refuses a spec with the retired
// shards axis or retry fields, one whose seeds repeat once 0 counts as
// 1, and one that repeats a load.
func TestServeRefusesBadSpecs(t *testing.T) {
	const same = `"AMRT WebSearch load=0.5 seed=1" and "AMRT WebSearch load=0.5 seed=1" are the same run`
	for spec, want := range map[string]string{
		`{"shards":[2]}`:                        `unknown field "shards"`,
		`{"retries":2}`:                         `unknown field "retries"`,
		`{"retry_backoff":"1s"}`:                `unknown field "retry_backoff"`,
		`{"protos":["AMRT"],"seeds":[0,1]}`:     same,
		`{"protos":["AMRT"],"loads":[0.5,0.5]}`: same,
	} {
		sc, err := specToSweep([]byte(spec), servePolicy{})
		if err == nil {
			err = sc.Validate()
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %s: err = %v, want it to contain %q", spec, err, want)
		}
	}
}

// TestTopoRejectsLeafSpineFlags: -topo names the whole fabric, so a
// leaf-spine flag set beside it is one line and exit status 2 instead of
// being silently ignored, whatever its value.
func TestTopoRejectsLeafSpineFlags(t *testing.T) {
	for _, fl := range []string{"-leaves=2", "-spines=0", "-hostsPerLeaf=8", "-gbps=25"} {
		var stdout, stderr bytes.Buffer
		name := strings.SplitN(fl, "=", 2)[0]
		code := runMain([]string{"-topo", "fattree:k=4", fl, "-flows", "10"}, &stdout, &stderr)
		want := "amrtsim: " + name + " cannot be combined with -topo (put it in the spec, see docs/TOPOLOGIES.md)\n"
		if code != 2 || stdout.Len() > 0 || stderr.String() != want {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q", fl, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestCompareUnknownWorkloadIsOneLine: a mistyped -workload under
// -compare is one line naming the workloads there are and exit status 1,
// not a goroutine dump and no partial table.
func TestCompareUnknownWorkloadIsOneLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runMain([]string{"-compare", "-workload", "Bogus"}, &stdout, &stderr)
	const want = `amrtsim: unknown workload "Bogus" (have [WebServer CacheFollower HadoopCluster WebSearch DataMining])` + "\n"
	if code != 1 || stdout.Len() > 0 || stderr.String() != want {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", code, stdout.String(), stderr.String(), want)
	}
}
