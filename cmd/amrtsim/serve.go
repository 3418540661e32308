package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"amrt"
	"amrt/internal/campaign"
	"amrt/internal/server"
)

// sweepSpec is the JSON job spec accepted by POST /jobs: the sweep
// axes and base-config knobs of `amrtsim sweep`, plus an optional
// per-job cell timeout. Durations are Go duration strings ("250ms") or
// integer nanoseconds. A zero cell timeout falls back to the daemon's
// -cell-timeout; docs/SERVICE.md has the full schema.
type sweepSpec struct {
	Protocols  []string  `json:"protos,omitempty"`
	Workloads  []string  `json:"workloads,omitempty"`
	Topologies []string  `json:"topos,omitempty"`
	Degrees    []int     `json:"degrees,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	Seeds      []int64   `json:"seeds,omitempty"`
	Faults     []string  `json:"faults,omitempty"`

	Flows        int          `json:"flows,omitempty"`
	Pattern      string       `json:"pattern,omitempty"`
	Topo         string       `json:"topo,omitempty"`
	IncastBytes  int64        `json:"incast_bytes,omitempty"`
	ShuffleWidth int          `json:"shuffle_width,omitempty"`
	ShuffleBytes int64        `json:"shuffle_bytes,omitempty"`
	RPCRequest   int64        `json:"rpc_request,omitempty"`
	RPCResponse  int64        `json:"rpc_response,omitempty"`
	RPCDeadline  specDuration `json:"rpc_deadline,omitempty"`
	HomaDegree   int          `json:"homa_degree,omitempty"`
	SIRDPool     int64        `json:"sird_pool,omitempty"`
	SIRDStale    int          `json:"sird_staleness,omitempty"`
	Timeout      specDuration `json:"timeout,omitempty"`
	Audit        bool         `json:"audit,omitempty"`

	// CellTimeout overrides the daemon's -cell-timeout for this job.
	CellTimeout specDuration `json:"cell_timeout,omitempty"`
}

// specDuration is a time.Duration that unmarshals from either a Go
// duration string ("250ms") or integer nanoseconds.
type specDuration time.Duration

// UnmarshalJSON implements json.Unmarshaler for both accepted forms.
func (d *specDuration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("bad duration %q: %w", s, perr)
		}
		*d = specDuration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(raw, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\" or integer nanoseconds: %w", err)
	}
	*d = specDuration(ns)
	return nil
}

// servePolicy is the daemon-wide execution defaults a spec's zero
// fields inherit.
type servePolicy struct {
	cacheDir    string
	workers     int
	cellTimeout time.Duration
	quarantine  bool
}

// specToSweep resolves a job spec against the daemon defaults into the
// executable amrt.SweepConfig. The cache directory is daemon-owned:
// every job shares it, which is what makes a restarted daemon resume
// interrupted jobs with cache hits.
func specToSweep(raw json.RawMessage, pol servePolicy) (amrt.SweepConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec sweepSpec
	if err := dec.Decode(&spec); err != nil {
		return amrt.SweepConfig{}, fmt.Errorf("bad sweep spec: %w", err)
	}
	sc := amrt.SweepConfig{
		Protocols:  spec.Protocols,
		Workloads:  spec.Workloads,
		Topologies: spec.Topologies,
		Degrees:    spec.Degrees,
		Loads:      spec.Loads,
		Seeds:      spec.Seeds,
		Faults:     spec.Faults,
		Base: amrt.Config{
			Flows:            spec.Flows,
			Pattern:          spec.Pattern,
			IncastBytes:      spec.IncastBytes,
			ShuffleWidth:     spec.ShuffleWidth,
			ShuffleBytes:     spec.ShuffleBytes,
			RPCRequestBytes:  spec.RPCRequest,
			RPCResponseBytes: spec.RPCResponse,
			RPCDeadline:      time.Duration(spec.RPCDeadline),
			Options: amrt.StackOptions{
				HomaDegree:        spec.HomaDegree,
				SIRDPoolBytes:     spec.SIRDPool,
				SIRDStalenessRTTs: spec.SIRDStale,
			},
			Timeout: time.Duration(spec.Timeout),
			Audit:   spec.Audit,
		},
		CacheDir:    pol.cacheDir,
		Workers:     pol.workers,
		CellTimeout: pol.cellTimeout,
		Quarantine:  pol.quarantine,
	}
	if spec.Topo != "" {
		t, err := amrt.ParseTopology(spec.Topo)
		if err != nil {
			return amrt.SweepConfig{}, fmt.Errorf("bad sweep spec: topo: %w", err)
		}
		sc.Base.Topology = t
	}
	if spec.CellTimeout != 0 {
		sc.CellTimeout = time.Duration(spec.CellTimeout)
	}
	return sc, nil
}

// serveMain implements `amrtsim serve`: the resilient campaign daemon.
// It journals every job to a ledger under -state, runs one job at a
// time, shares one result cache across jobs, runs each cell once and
// quarantines a failed one (unless -strict), and drains gracefully on
// SIGINT/SIGTERM — in-flight jobs checkpoint into the cache and resume
// on the next start.
// docs/SERVICE.md documents the HTTP API and operational semantics.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("amrtsim serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8340", "listen address")
		stateDir = fs.String("state", ".amrtsim-serve", "state directory: job ledger, results, and the shared sweep cache")
		workers  = fs.Int("workers", 0, "per-job cell worker cap (0 = GOMAXPROCS)")
		cellTO   = fs.Duration("cell-timeout", 0, "default per-cell budget (0 = unbounded)")
		strict   = fs.Bool("strict", false, "fail a whole job on its first failed cell instead of quarantining it")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM before in-flight jobs are checkpointed")
	)
	fs.Parse(args)

	pol := servePolicy{
		cacheDir:    filepath.Join(*stateDir, "cache"),
		workers:     *workers,
		cellTimeout: *cellTO,
		quarantine:  !*strict,
	}
	srv, err := server.New(server.Config{
		StateDir: *stateDir,
		Validate: func(spec json.RawMessage) error {
			sc, err := specToSweep(spec, pol)
			if err != nil {
				return err
			}
			return sc.Validate()
		},
		Runner: func(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error) {
			sc, err := specToSweep(spec, pol)
			if err != nil {
				return nil, err
			}
			sc.Progress = progress
			res, err := amrt.Sweep(ctx, sc)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim serve: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim serve: %v\n", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "amrtsim serve: listening on %s (state %s)\n", ln.Addr(), *stateDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		// The listener failed underneath us; stop the pool and exit.
		srv.Shutdown(context.Background())
		fmt.Fprintf(os.Stderr, "amrtsim serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "amrtsim serve: draining (budget %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "amrtsim serve: drain budget exceeded, in-flight jobs checkpointed\n")
	}
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "amrtsim serve: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "amrtsim serve: stopped")
	return 0
}
