package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"amrt/internal/campaign"
)

// Ledger is the daemon's journaled job store. Every job state
// transition rewrites the job's record at <dir>/jobs/<id>.json and
// every completed job's report lands at <dir>/results/<id>.json, both
// through campaign.WriteAtomic, the temp-file+rename write that
// campaign.Cache uses too — a daemon killed mid-write never leaves a
// partial record that a restart would trust. Replaying the ledger (Jobs) plus the shared campaign cache is
// the whole recovery story: jobs found queued, running, or interrupted
// are re-queued, and their completed cells resolve as cache hits.
type Ledger struct {
	dir string
}

// OpenLedger opens (creating if needed) a ledger rooted at dir.
func OpenLedger(dir string) (*Ledger, error) {
	for _, sub := range []string{"jobs", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("server: ledger dir: %w", err)
		}
	}
	return &Ledger{dir: dir}, nil
}

// Dir returns the ledger's root directory.
func (l *Ledger) Dir() string { return l.dir }

// PutJob journals one job record, atomically replacing any prior
// version.
func (l *Ledger) PutJob(j *Job) error {
	raw, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("server: encode job %s: %w", j.ID, err)
	}
	return campaign.WriteAtomic(filepath.Join(l.dir, "jobs", j.ID+".json"), raw)
}

// Jobs replays the ledger: every journaled job record, sorted by
// submission sequence. Records that no longer parse are skipped (a
// partial write cannot happen under the atomic idiom, but a ledger is
// user-visible state and a hand-edited file must not brick the daemon).
func (l *Ledger) Jobs() ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(l.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("server: replay ledger: %w", err)
	}
	var jobs []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(l.dir, "jobs", e.Name()))
		if err != nil {
			continue
		}
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil || j.ID == "" {
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Seq < jobs[k].Seq })
	return jobs, nil
}

// PutResult persists a completed job's report payload atomically.
func (l *Ledger) PutResult(id string, payload []byte) error {
	return campaign.WriteAtomic(filepath.Join(l.dir, "results", id+".json"), payload)
}

// Result returns a completed job's persisted report payload.
func (l *Ledger) Result(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(l.dir, "results", id+".json"))
}
