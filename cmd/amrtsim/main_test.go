package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// TestSpecFieldsAreFlags: the job spec and the command lines are one
// list of knobs. Every sweepSpec field, baseSpec's included, is the
// `amrtsim sweep` flag of the same name with '_' written as '-', and
// every baseSpec field is also an `amrtsim` flag.
func TestSpecFieldsAreFlags(t *testing.T) {
	sweepFlags, runFlags := helpFlags(t, sweepMain), helpFlags(t, runMain)
	for _, f := range specFields(reflect.TypeOf(sweepSpec{})) {
		name := strings.ReplaceAll(strings.Split(f.Tag.Get("json"), ",")[0], "_", "-")
		if !sweepFlags[name] {
			t.Errorf("spec field %s (%s) is not an amrtsim sweep flag", f.Name, name)
		}
		if _, base := reflect.TypeOf(baseSpec{}).FieldByName(f.Name); base && !runFlags[name] {
			t.Errorf("base field %s (%s) is not an amrtsim flag", f.Name, name)
		}
	}
}

// TestSweepFlagsMatchSpec: one grid, every knob set, given as `amrtsim
// sweep` flags and as a serve job spec under the same policy, resolves
// to the same amrt.SweepConfig.
func TestSweepFlagsMatchSpec(t *testing.T) {
	args := []string{
		"-protos", "SIRD, Homa", "-workloads", "WebServer,DataMining", "-topos", "|fattree:k=4",
		"-degrees", "4,8", "-loads", "0.3,0.7", "-seeds", "1,2", "-faults", "|ctrl-loss=0.01",
		"-flows", "200", "-topo", "leafspine:leaves=2,spines=2,hosts=4", "-pattern", "incast",
		"-incast-bytes", "4096", "-shuffle-width", "2", "-shuffle-bytes", "8192",
		"-rpc-request", "100", "-rpc-response", "1000", "-rpc-deadline", "2ms",
		"-homa-degree", "4", "-sird-pool", "65536", "-sird-staleness", "4",
		"-timeout", "50ms", "-audit", "-cell-timeout", "1m",
		"-cache", "dir", "-workers", "3", "-quarantine",
	}
	const spec = `{"protos":["SIRD","Homa"],"workloads":["WebServer","DataMining"],"topos":["","fattree:k=4"],
		"degrees":[4,8],"loads":[0.3,0.7],"seeds":[1,2],"faults":["","ctrl-loss=0.01"],
		"flows":200,"topo":"leafspine:leaves=2,spines=2,hosts=4","pattern":"incast",
		"incast_bytes":4096,"shuffle_width":2,"shuffle_bytes":8192,
		"rpc_request":100,"rpc_response":1000,"rpc_deadline":"2ms",
		"homa_degree":4,"sird_pool":65536,"sird_staleness":4,
		"timeout":50000000,"audit":true,"cell_timeout":"1m"}`
	var c sweepCommand
	if err := c.parse(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(c.spec)
	for _, f := range specFields(v.Type()) {
		if v.FieldByIndex(f.Index).IsZero() {
			t.Errorf("the grid leaves spec field %s unset", f.Name)
		}
	}
	fromFlags, err := c.spec.sweep(c.pol)
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := specToSweep([]byte(spec), servePolicy{cacheDir: "dir", workers: 3, quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags, fromSpec) {
		t.Errorf("flags resolve to\n%+v\nthe spec to\n%+v", fromFlags, fromSpec)
	}
}

// specFields lists a spec type's knobs, an embedded spec's included.
func specFields(typ reflect.Type) []reflect.StructField {
	var out []reflect.StructField
	for _, f := range reflect.VisibleFields(typ) {
		if !f.Anonymous {
			out = append(out, f)
		}
	}
	return out
}

// helpFlags returns the flag names a command lists under -h.
func helpFlags(t *testing.T, main func(args []string, stdout, stderr io.Writer) int) map[string]bool {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := main([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, stderr %q", code, stderr.String())
	}
	names := map[string]bool{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names[strings.Fields(rest)[0]] = true
		}
	}
	return names
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
