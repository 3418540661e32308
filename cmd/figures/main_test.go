package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"amrt/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// render is what `figures -fig F [-proto P] -csv DIR` produces: the
// stdout bytes, then one "csv <file> <sha256>" line per file of DIR in
// name order.
func render(t *testing.T, fig, proto string) []byte {
	t.Helper()
	var buf bytes.Buffer
	dir := filepath.Join(t.TempDir(), "csv")
	runFigure(&buf, fig, experiment.DefaultSimConfig(), proto, "", "", dir, false)
	files, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "csv %s %x\n", f.Name(), sha256.Sum256(data))
	}
	return buf.Bytes()
}

// TestFiguresGolden pins the small-topology figures — everything that
// runs through experiment.ScenarioHarness — byte for byte: tables and
// time-series CSVs. The goldens are the output of the binary built at
// the commit before the figures moved onto the harness; a deliberate
// behaviour change (SimVersion bump) regenerates them with -update.
// Link-utilization CSVs also move when their sampler changes band: the
// late-band TrackUtil tick books a transmission that ends on the tick's
// nanosecond into the window it ended in (fig2_AMRT, 2.0 ms).
func TestFiguresGolden(t *testing.T) {
	cases := []struct{ fig, proto string }{
		{"1", ""}, {"1", "AMRT"},
		{"2", ""}, {"2", "AMRT"},
		{"9", ""}, {"9", "pHost"},
		{"11", ""},
		{"5", ""}, {"ablation", ""}, {"related", ""},
	}
	for _, c := range cases {
		name := "fig" + c.fig
		if c.proto != "" {
			name += "_" + c.proto
		}
		t.Run(name, func(t *testing.T) {
			got := render(t, c.fig, c.proto)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("figures -fig %s -proto %q differs from %s:\n%s", c.fig, c.proto, path, got)
			}
		})
	}
}

// TestUnknownProtoIsOneLine: a mistyped -proto is refused before any
// figure runs, with one line naming the protocols there are.
func TestUnknownProtoIsOneLine(t *testing.T) {
	err := checkProto("Bogus")
	want := fmt.Sprintf("figures: unknown protocol %q (have %v)", "Bogus", experiment.StackNames())
	if err == nil || err.Error() != want {
		t.Errorf("checkProto(Bogus) = %v, want %s", err, want)
	}
	for _, name := range append(experiment.StackNames(), "") {
		if err := checkProto(name); err != nil {
			t.Errorf("checkProto(%q) = %v", name, err)
		}
	}
}
