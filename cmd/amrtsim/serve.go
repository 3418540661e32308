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

// specToSweep decodes a POST /jobs body and resolves it against the
// daemon's policy. The cache directory is daemon-owned: every job
// shares it, which is what makes a restarted daemon resume interrupted
// jobs with cache hits.
func specToSweep(raw json.RawMessage, pol servePolicy) (amrt.SweepConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec sweepSpec
	sc, err := amrt.SweepConfig{}, dec.Decode(&spec)
	if err == nil {
		sc, err = spec.sweep(pol)
	}
	if err != nil {
		return amrt.SweepConfig{}, fmt.Errorf("bad sweep spec: %w", err)
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
	var pol servePolicy
	fs.IntVar(&pol.workers, "workers", 0, "per-job cell worker cap (0 = GOMAXPROCS)")
	fs.DurationVar(&pol.cellTimeout, "cell-timeout", 0, "default per-cell budget (0 = unbounded)")
	var (
		addr     = fs.String("addr", "127.0.0.1:8340", "listen address")
		stateDir = fs.String("state", ".amrtsim-serve", "state directory: job ledger, results, and the shared sweep cache")
		strict   = fs.Bool("strict", false, "fail a whole job on its first failed cell instead of quarantining it")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM before in-flight jobs are checkpointed")
	)
	fs.Parse(args)
	pol.cacheDir, pol.quarantine = filepath.Join(*stateDir, "cache"), !*strict

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
