// Package server implements the amrtsim serve campaign daemon: a
// long-lived HTTP service that accepts sweep specs as jobs, runs them
// one at a time in submission order on a supervised worker backed by
// the content-addressed campaign cache, and survives the failures a
// standing service actually sees. Its robustness contract has four
// legs:
//
//  1. per-cell quarantine — the Runner runs each cell once under a
//     per-cell timeout and quarantines a failed cell
//     (campaign.Config.Quarantine), so one poisoned cell degrades a
//     job instead of killing it;
//  2. panic isolation — a panicking cell (experiment.WorkerPanic or
//     any other panic inside the runner) fails its job, never the
//     daemon;
//  3. a journaled job ledger (Ledger) — atomic temp-file+rename
//     records per job, so a SIGKILLed daemon restarts, replays the
//     ledger, re-queues interrupted jobs, and resumes them with cache
//     hits for every completed cell;
//  4. graceful drain — Shutdown stops intake, lets in-flight jobs
//     finish until the deadline, then checkpoints them as interrupted
//     (their completed cells are already in the cache) and flushes the
//     ledger.
//
// The package is simulator-agnostic like internal/campaign: a job's
// spec and result are opaque JSON, executed by the injected Runner
// (cmd/amrtsim wires amrt.Sweep). docs/SERVICE.md documents the HTTP
// surface, job lifecycle, and ledger layout.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"amrt/internal/campaign"
	"amrt/internal/experiment"
)

// JobState is one stop in the job lifecycle: queued → running →
// done | failed, with interrupted as the checkpoint state a drain or
// crash leaves behind (re-queued on the next start).
type JobState string

// The job lifecycle states journaled in the ledger.
const (
	// JobQueued marks a job accepted but not yet claimed by a worker.
	JobQueued JobState = "queued"
	// JobRunning marks a job claimed by a worker. A ledger replay
	// treats it like interrupted: the daemon died mid-job.
	JobRunning JobState = "running"
	// JobInterrupted marks a job checkpointed by a drain: its
	// completed cells are in the cache, and a restart re-queues it.
	JobInterrupted JobState = "interrupted"
	// JobDone marks a completed job whose report is in the ledger.
	JobDone JobState = "done"
	// JobFailed marks a job whose runner returned an error or panicked.
	JobFailed JobState = "failed"
)

// terminal reports whether a state ends the job lifecycle.
func (s JobState) terminal() bool { return s == JobDone || s == JobFailed }

// JobProgress is the live campaign.Progress snapshot of one job:
// resolved points, cache ledger, and quarantined-point count.
type JobProgress struct {
	Done   int `json:"done"`
	Total  int `json:"total"`
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Failed int `json:"failed"`
}

// Job is one submitted campaign: its identity, opaque spec, lifecycle
// state, and latest progress snapshot. The ledger journals exactly
// this record.
type Job struct {
	// ID is the server-assigned identity: submission sequence plus a
	// digest prefix of the spec, e.g. "job-000003-1a2b3c4d".
	ID string `json:"id"`
	// Seq is the submission sequence number, the queue order.
	Seq int `json:"seq"`
	// Spec is the compacted job spec as submitted (opaque JSON).
	Spec json.RawMessage `json:"spec"`
	// State is the lifecycle state (see JobState).
	State JobState `json:"state"`
	// Error holds the final error text of a failed or interrupted job.
	Error string `json:"error,omitempty"`
	// Progress is the latest progress snapshot. Mid-run progress lives
	// only in memory — cells are checkpointed in the campaign cache,
	// not the ledger — and the final snapshot is journaled with the
	// terminal transition.
	Progress JobProgress `json:"progress"`
}

// Runner executes one job: it receives the job's opaque spec and a
// progress hook fed from the campaign's Progress stream, and returns
// the report payload. It must honor ctx promptly — a drain past its
// deadline cancels ctx and journals the job as interrupted.
type Runner func(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error)

// Config wires a Server.
type Config struct {
	// StateDir roots the ledger (jobs/, results/). The campaign cache
	// conventionally lives beside it, but the server itself never
	// touches it — the Runner owns cache placement.
	StateDir string
	// Runner executes submitted jobs (required).
	Runner Runner
	// Validate, when non-nil, vets a spec at submission time so
	// malformed jobs are rejected with an error (HTTP 400) instead of
	// being accepted and failing later.
	Validate func(spec json.RawMessage) error
}

// Sentinel errors of the submission path.
var (
	// ErrDraining reports a submission to a draining or stopped server.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrUnknownJob reports a lookup of a job ID the ledger never saw.
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrNoResult reports a result request for a job that is not done.
	ErrNoResult = errors.New("server: job has no result")
)

// Server is the campaign daemon: a job queue, one supervised worker
// (cell-level parallelism inside a job belongs to the Runner), and the
// journaled ledger. Create with New, serve its Handler,
// stop with Shutdown.
type Server struct {
	cfg        Config
	ledger     *Ledger
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string
	watchers map[string][]chan Job
	seq      int
	draining bool
	stopped  bool
}

// New opens the ledger under cfg.StateDir, replays it — jobs journaled
// queued, running, or interrupted are re-queued; done and failed jobs
// are kept for status and result serving — and starts the worker.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("server: Config.Runner is required")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("server: Config.StateDir is required")
	}
	ledger, err := OpenLedger(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		ledger:     ledger,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		watchers:   map[string][]chan Job{},
	}
	s.cond = sync.NewCond(&s.mu)
	replayed, err := ledger.Jobs()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, j := range replayed {
		if !j.State.terminal() {
			// The daemon died or drained mid-job: re-queue. Completed
			// cells live in the campaign cache, so the re-run resolves
			// them as hits instead of recomputation.
			j.State = JobQueued
			j.Progress = JobProgress{}
			if err := ledger.PutJob(j); err != nil {
				cancel()
				return nil, err
			}
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if j.Seq > s.seq {
			s.seq = j.Seq
		}
	}
	s.wg.Add(1)
	go s.worker()
	return s, nil
}

// Submit accepts one job spec, journals it queued, and returns the job
// snapshot. Identical specs submitted twice are distinct jobs (the
// cache, not the queue, deduplicates the work). Returns ErrDraining
// once Shutdown has begun.
func (s *Server) Submit(spec json.RawMessage) (Job, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, spec); err != nil {
		return Job{}, fmt.Errorf("server: spec is not valid JSON: %w", err)
	}
	if s.cfg.Validate != nil {
		if err := s.cfg.Validate(compact.Bytes()); err != nil {
			return Job{}, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return Job{}, ErrDraining
	}
	s.seq++
	sum := sha256.Sum256(compact.Bytes())
	j := &Job{
		ID:    fmt.Sprintf("job-%06d-%x", s.seq, sum[:4]),
		Seq:   s.seq,
		Spec:  json.RawMessage(compact.String()),
		State: JobQueued,
	}
	if err := s.ledger.PutJob(j); err != nil {
		s.seq--
		return Job{}, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.cond.Signal()
	return *j, nil
}

// Job returns a snapshot of one job by ID.
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns snapshots of every job in submission order.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Result returns the persisted report payload of a done job.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state JobState
	if ok {
		state = j.State
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if state != JobDone {
		return nil, fmt.Errorf("%w: %s is %s", ErrNoResult, id, state)
	}
	return s.ledger.Result(id)
}

// Draining reports whether Shutdown has begun (readiness turns false).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.stopped
}

// Shutdown drains the server gracefully: stop accepting jobs, let
// queued and in-flight jobs finish until ctx expires, then cancel
// whatever still runs so it checkpoints — the runner observes the
// cancellation, completed cells stay in the cache, and the job is
// journaled interrupted for the next start to resume. Returns
// ctx.Err() when the deadline cut the drain short, nil on a complete
// drain. The worker is stopped and the ledger flushed either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		defer close(idle)
		s.mu.Lock()
		defer s.mu.Unlock()
		for !s.stopped && s.busyLocked() > 0 {
			s.cond.Wait()
		}
	}()

	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel() // checkpoint in-flight jobs past the drain deadline
	s.wg.Wait()
	<-idle

	// Unblock any remaining watch streams (their jobs never reached a
	// terminal state in this process).
	s.mu.Lock()
	for id, chans := range s.watchers {
		for _, ch := range chans {
			close(ch)
		}
		delete(s.watchers, id)
	}
	s.mu.Unlock()
	return err
}

// busyLocked counts jobs still owed work. Caller holds s.mu.
func (s *Server) busyLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.State == JobQueued || j.State == JobRunning {
			n++
		}
	}
	return n
}

// worker claims queued jobs in submission order until the server stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ctx, cancel := s.claim()
		if j == nil {
			return
		}
		s.runJob(j, ctx, cancel)
	}
}

// claim blocks until a queued job is available (returning it marked
// running, with its cancellable context) or the server stops (nil).
func (s *Server) claim() (*Job, context.Context, context.CancelFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil, nil, nil
		}
		for _, id := range s.order {
			j := s.jobs[id]
			if j.State != JobQueued {
				continue
			}
			j.State = JobRunning
			j.Error = ""
			s.persistLocked(j)
			s.notifyLocked(j)
			ctx, cancel := context.WithCancel(s.baseCtx)
			return j, ctx, cancel
		}
		s.cond.Wait()
	}
}

// runJob executes one claimed job and journals its terminal (or
// checkpoint) transition.
func (s *Server) runJob(j *Job, ctx context.Context, cancel context.CancelFunc) {
	payload, panicked, err := s.invoke(ctx, j)
	interrupted := ctx.Err() != nil && !panicked

	s.mu.Lock()
	defer s.mu.Unlock()
	cancel()
	switch {
	case err == nil:
		if perr := s.ledger.PutResult(j.ID, payload); perr != nil {
			j.State = JobFailed
			j.Error = fmt.Sprintf("persisting result: %v", perr)
		} else {
			j.State = JobDone
			j.Error = ""
		}
	case interrupted:
		// A drain (or daemon shutdown) cancelled the job mid-flight:
		// checkpoint. Completed cells are in the cache; the next start
		// re-queues the job and resumes with hits.
		j.State = JobInterrupted
		j.Error = err.Error()
	default:
		j.State = JobFailed
		j.Error = err.Error()
	}
	s.persistLocked(j)
	s.notifyLocked(j)
	s.cond.Broadcast()
}

// invoke runs the Runner with panic isolation: a panicking cell —
// *experiment.WorkerPanic from the campaign pool, or anything else —
// fails this job and leaves the daemon standing.
func (s *Server) invoke(ctx context.Context, j *Job) (payload json.RawMessage, panicked bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			if wp, ok := v.(*experiment.WorkerPanic); ok {
				err = fmt.Errorf("server: job %s worker panic: %w", j.ID, wp)
			} else {
				err = fmt.Errorf("server: job %s panic: %v\n%s", j.ID, v, debug.Stack())
			}
		}
	}()
	payload, err = s.cfg.Runner(ctx, j.Spec, func(p campaign.Progress) { s.observe(j.ID, p) })
	return payload, false, err
}

// observe folds one campaign.Progress update into the job's snapshot
// and fans it out to watchers.
func (s *Server) observe(id string, p campaign.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.State != JobRunning {
		return
	}
	j.Progress = JobProgress{Done: p.Done, Total: p.Total, Hits: p.Hits, Misses: p.Misses, Failed: p.Failed}
	s.notifyLocked(j)
}

// persistLocked journals a job record; a ledger write failure must not
// crash the daemon, so it degrades to marking the job's error. Caller
// holds s.mu.
func (s *Server) persistLocked(j *Job) {
	if err := s.ledger.PutJob(j); err != nil && j.Error == "" {
		j.Error = fmt.Sprintf("journaling %s: %v", j.State, err)
	}
}

// notifyLocked fans a job snapshot out to its watchers, closing them
// on terminal states. Sends never block: a slow watcher misses
// intermediate snapshots, not the terminal one (watch re-reads the job
// after the channel closes). Caller holds s.mu.
func (s *Server) notifyLocked(j *Job) {
	chans := s.watchers[j.ID]
	if len(chans) == 0 {
		return
	}
	snap := *j
	for _, ch := range chans {
		select {
		case ch <- snap:
		default:
		}
	}
	if j.State.terminal() {
		for _, ch := range chans {
			close(ch)
		}
		delete(s.watchers, j.ID)
	}
}

// watch subscribes to a job's progress feed. The returned channel
// delivers snapshots and closes on the job's terminal transition;
// cancel unsubscribes early. ok is false for unknown jobs.
func (s *Server) watch(id string) (ch <-chan Job, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, exists := s.jobs[id]
	if !exists {
		return nil, nil, false
	}
	c := make(chan Job, 64)
	if j.State.terminal() {
		// Already settled: deliver the terminal snapshot and close.
		c <- *j
		close(c)
		return c, func() {}, true
	}
	s.watchers[id] = append(s.watchers[id], c)
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		chans := s.watchers[id]
		for i, w := range chans {
			if w == c {
				s.watchers[id] = append(chans[:i], chans[i+1:]...)
				return
			}
		}
	}
	return c, cancel, true
}
