package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"amrt"
	"amrt/internal/campaign"
	"amrt/internal/pool"
	"amrt/internal/server"
)

// echoRunner completes instantly, returning a payload derived from the
// spec, after reporting one progress tick.
func echoRunner(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error) {
	progress(campaign.Progress{Done: 1, Total: 1, Misses: 1})
	return json.RawMessage(`{"echo":` + string(spec) + `}`), nil
}

// waitJob polls until the job reaches want (fatal on timeout or on a
// different terminal state).
func waitJob(t *testing.T, s *server.Server, id string, want server.JobState) server.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State == want {
			return j
		}
		if j.State == server.JobDone || j.State == server.JobFailed {
			t.Fatalf("job %s settled as %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return server.Job{}
}

func TestServerJobLifecycleHTTP(t *testing.T) {
	s, err := server.New(server.Config{
		StateDir: t.TempDir(),
		Runner:   echoRunner,
		Validate: func(spec json.RawMessage) error {
			if strings.Contains(string(spec), "reject") {
				return errors.New("spec rejected")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", probe, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"n": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	var j server.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if !strings.HasPrefix(j.ID, "job-000001-") {
		t.Errorf("first job ID = %q", j.ID)
	}

	waitJob(t, s, j.ID, server.JobDone)

	resp, err = http.Get(ts.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d (%s)", resp.StatusCode, payload)
	}
	if got := string(payload); got != `{"echo":{"n":1}}` {
		t.Errorf("result payload = %s", got)
	}

	// The watch stream of a settled job delivers its terminal record.
	resp, err = http.Get(ts.URL + "/jobs/" + j.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatalf("watch stream: %v", err)
	}
	var snap server.Job
	if err := json.Unmarshal(line, &snap); err != nil {
		t.Fatalf("watch line %s: %v", line, err)
	}
	if snap.State != server.JobDone || snap.Progress.Done != 1 {
		t.Errorf("watch snapshot = %+v", snap)
	}

	// Listing, unknown jobs, and rejected specs.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []server.Job
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != j.ID {
		t.Errorf("GET /jobs = %+v", list)
	}
	for path, want := range map[string]int{
		"/jobs/job-999999-deadbeef":        http.StatusNotFound,
		"/jobs/job-999999-deadbeef/result": http.StatusNotFound,
		"/jobs/job-999999-deadbeef/watch":  http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	for body, want := range map[string]int{
		`{"reject": true}`: http.StatusBadRequest,
		`not json`:         http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %q = %d, want %d", body, resp.StatusCode, want)
		}
	}
}

func TestServerPanicIsolation(t *testing.T) {
	// A panicking job — whether the campaign pool's WorkerPanic or any
	// other panic — fails that job and leaves the daemon serving.
	s, err := server.New(server.Config{
		StateDir: t.TempDir(),
		Runner: func(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error) {
			switch string(spec) {
			case `"worker-panic"`:
				panic(&pool.WorkerPanic{Index: 3, Value: "cell exploded", Stack: []byte("stack")})
			case `"plain-panic"`:
				panic("runner exploded")
			}
			return echoRunner(ctx, spec, progress)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	wp, err := s.Submit(json.RawMessage(`"worker-panic"`))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := s.Submit(json.RawMessage(`"plain-panic"`))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Submit(json.RawMessage(`"fine"`))
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		a, _ := s.Job(wp.ID)
		b, _ := s.Job(pp.ID)
		c, _ := s.Job(ok.ID)
		if a.State == server.JobFailed && b.State == server.JobFailed && c.State == server.JobDone {
			if !strings.Contains(a.Error, "cell exploded") {
				t.Errorf("worker-panic job error = %q", a.Error)
			}
			if !strings.Contains(b.Error, "runner exploded") {
				t.Errorf("plain-panic job error = %q", b.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs never settled after runner panics")
}

func TestServerDrainInterruptsRunningJob(t *testing.T) {
	started := make(chan struct{})
	s, err := server.New(server.Config{
		StateDir: t.TempDir(),
		Runner: func(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Drain with an already-expired budget: the in-flight job must be
	// cancelled and journaled interrupted, not failed.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); err == nil {
		t.Error("Shutdown with expired budget returned nil, want context error")
	}
	got, _ := s.Job(j.ID)
	if got.State != server.JobInterrupted {
		t.Fatalf("drained job state = %s (error %q), want interrupted", got.State, got.Error)
	}
	if _, err := s.Submit(json.RawMessage(`{}`)); !errors.Is(err, server.ErrDraining) {
		t.Errorf("Submit after Shutdown = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
}

// sweepSpecFor builds the real-simulator sweep config the crash-resume
// test uses: 4 cheap points against the daemon's shared cache.
func sweepSpecFor(cacheDir string) amrt.SweepConfig {
	return amrt.SweepConfig{
		Protocols: []string{"pHost", "AMRT"},
		Loads:     []float64{0.4},
		Seeds:     []int64{1, 2},
		Base: amrt.Config{
			Workload: "WebServer", Flows: 80,
			Topology: amrt.Topology{Leaves: 2, Spines: 2, HostsPerLeaf: 5},
		},
		CacheDir: cacheDir,
		Workers:  1,
	}
}

// sweepRunner executes sweepSpecFor against the daemon cache,
// mirroring the cmd/amrtsim serve wiring. notify, when non-nil, is
// called after every resolved point (used to trigger the mid-flight
// interruption).
func sweepRunner(cacheDir string, notify func(amrt.SweepProgress)) server.Runner {
	return func(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error) {
		sc := sweepSpecFor(cacheDir)
		sc.Progress = func(p amrt.SweepProgress) {
			progress(p)
			if notify != nil {
				notify(p)
			}
		}
		res, err := amrt.Sweep(ctx, sc)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// TestServerCrashResume is the daemon-path crash-resume regression: a
// campaign interrupted mid-flight is journaled, a restarted daemon
// replays the ledger and re-runs it to completion, and a simulated
// SIGKILL (job record left "running" on disk) resumes with 100% cache
// hits — all against byte-identical reports.
func TestServerCrashResume(t *testing.T) {
	stateDir := t.TempDir()
	cacheDir := stateDir + "/cache"

	// Reference report from a direct, uninterrupted sweep on its own
	// cache.
	ref, err := amrt.Sweep(context.Background(), sweepSpecFor(t.TempDir()+"/cache"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// Daemon #1: interrupt the job after its second resolved point by
	// draining with an expired budget.
	interrupt := make(chan struct{})
	var once bool
	s1, err := server.New(server.Config{
		StateDir: stateDir,
		Runner: sweepRunner(cacheDir, func(p amrt.SweepProgress) {
			if p.Done >= 2 && !once {
				once = true
				close(interrupt)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	<-interrupt
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Shutdown(expired)
	if got, _ := s1.Job(j.ID); got.State != server.JobInterrupted {
		t.Fatalf("job after drain = %s (error %q), want interrupted", got.State, got.Error)
	}

	// Daemon #2 on the same state dir: the ledger replays the
	// interrupted job, re-queues it, and the shared cache supplies the
	// completed points.
	s2, err := server.New(server.Config{StateDir: stateDir, Runner: sweepRunner(cacheDir, nil)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s2, j.ID, server.JobDone)
	if done.Progress.Hits < 2 {
		t.Errorf("resumed job re-computed checkpointed points: %+v", done.Progress)
	}
	payload, err := s2.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want.Bytes()) {
		t.Error("resumed report is not byte-identical to the direct sweep")
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulated SIGKILL: rewrite the finished job's ledger record to
	// "running" — exactly what a daemon killed mid-job leaves behind —
	// and restart. The replay re-queues it and every point must be a
	// cache hit.
	ledger, err := server.OpenLedger(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	crashed := done
	crashed.State = server.JobRunning
	if err := ledger.PutJob(&crashed); err != nil {
		t.Fatal(err)
	}
	// Every point of the replayed job is a cache hit, so a worker could
	// finish it before the test looks: the job's run waits at a gate
	// until the replayed state has been read.
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	resume := sweepRunner(cacheDir, nil)
	s3, err := server.New(server.Config{StateDir: stateDir, Runner: func(ctx context.Context, spec json.RawMessage, progress func(campaign.Progress)) (json.RawMessage, error) {
		<-gate
		return resume(ctx, spec, progress)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Shutdown(context.Background())
	defer open() // before the drain, which waits for the run
	if replayed, _ := s3.Job(j.ID); replayed.State == server.JobDone {
		t.Fatal("ledger replay did not re-queue the crashed job")
	}
	open()
	redone := waitJob(t, s3, j.ID, server.JobDone)
	if redone.Progress.Hits != redone.Progress.Total || redone.Progress.Misses != 0 {
		t.Errorf("SIGKILL resume was not 100%% cache hits: %+v", redone.Progress)
	}
	payload, err = s3.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want.Bytes()) {
		t.Error("SIGKILL-resumed report is not byte-identical to the direct sweep")
	}
}

func TestLedgerReplaySkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	ledger, err := server.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		j := &server.Job{ID: fmt.Sprintf("job-%06d-abcd0000", i), Seq: i, Spec: json.RawMessage(`{}`), State: server.JobDone}
		if err := ledger.PutJob(j); err != nil {
			t.Fatal(err)
		}
	}
	// A hand-mangled record must not brick the replay.
	if err := os.WriteFile(dir+"/jobs/job-000002-abcd0000.json", []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := ledger.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Seq != 1 || jobs[1].Seq != 3 {
		t.Fatalf("replay = %+v, want jobs 1 and 3 in order", jobs)
	}
}
