package amrt

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSweepConfigValidatePolicy(t *testing.T) {
	base := smallSweep("")
	if err := base.Validate(); err != nil {
		t.Fatalf("valid sweep config rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		mut  func(*SweepConfig)
	}{
		{"negative cell timeout", func(sc *SweepConfig) { sc.CellTimeout = -time.Second }},
	} {
		sc := smallSweep("")
		tc.mut(&sc)
		err := sc.Validate()
		if !errors.Is(err, ErrBadPolicy) {
			t.Errorf("%s: Validate() = %v, want ErrBadPolicy", tc.name, err)
		}
		if _, err := Sweep(context.Background(), sc); !errors.Is(err, ErrBadPolicy) {
			t.Errorf("%s: Sweep() = %v, want ErrBadPolicy", tc.name, err)
		}
	}

	// Point-level validation still surfaces through the sweep config.
	sc := smallSweep("")
	sc.Protocols = []string{"QUIC"}
	if err := sc.Validate(); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("bad protocol: Validate() = %v, want ErrUnknownProtocol", err)
	}
}

func TestSweepCellTimeoutQuarantineDegradesGracefully(t *testing.T) {
	// A cell budget no simulation can meet: with quarantine, every
	// point fails once and the campaign still completes with a full
	// failure ledger instead of an error.
	sc := smallSweep(filepath.Join(t.TempDir(), "cache"))
	sc.CellTimeout = time.Nanosecond
	sc.Quarantine = true
	var last SweepProgress
	sc.Progress = func(p SweepProgress) { last = p }
	res, err := Sweep(context.Background(), sc)
	if err != nil {
		t.Fatalf("quarantined sweep returned error: %v", err)
	}
	if len(res.Points) != 0 {
		t.Errorf("%d points completed under a 1ns cell budget", len(res.Points))
	}
	if len(res.Failed) != res.TotalPoints {
		t.Fatalf("%d failures, want %d", len(res.Failed), res.TotalPoints)
	}
	for _, f := range res.Failed {
		if !strings.Contains(f.Error, "cell timeout") {
			t.Errorf("point %s: error %q does not name the cell timeout", f.SweepCoord, f.Error)
		}
	}
	if last.Failed != res.TotalPoints || last.Err == "" {
		t.Errorf("final progress = %+v", last)
	}

	// Without quarantine the same budget aborts the campaign.
	strict := smallSweep(filepath.Join(t.TempDir(), "strict"))
	strict.CellTimeout = time.Nanosecond
	if _, err := Sweep(context.Background(), strict); err == nil {
		t.Error("strict sweep with an impossible cell budget returned nil error")
	}
}

func TestSweepGenerousCellTimeoutPreservesResults(t *testing.T) {
	// The cell timeout and quarantine must be invisible to healthy
	// campaigns: the same grid with and without them produces
	// identical results (neither is part of the cache key).
	plain, err := Sweep(context.Background(), smallSweep(""))
	if err != nil {
		t.Fatal(err)
	}
	sc := smallSweep("")
	sc.CellTimeout = time.Hour
	sc.Quarantine = true
	policied, err := Sweep(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(policied.Failed) != 0 {
		t.Fatalf("healthy campaign quarantined %d points", len(policied.Failed))
	}
	if len(plain.Points) != len(policied.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(plain.Points), len(policied.Points))
	}
	for i := range plain.Points {
		if plain.Points[i].Result != policied.Points[i].Result {
			t.Errorf("point %d differs under the cell timeout", i)
		}
	}
}
