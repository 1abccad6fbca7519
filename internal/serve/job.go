package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"clrdram/internal/sim"
)

// RunOptions is the client-settable subset of sim.Options: the run-shaping
// knobs that change results (and therefore job identity). Zero fields mean
// the simulator defaults; Normalize makes that explicit so two requests
// that mean the same run hash to the same job ID.
type RunOptions struct {
	Seed               int64  `json:"seed,omitempty"`
	TargetInstructions uint64 `json:"target_instructions,omitempty"`
	WarmupRecords      int    `json:"warmup_records,omitempty"`
	ProfileRecords     int    `json:"profile_records,omitempty"`
	Channels           int    `json:"channels,omitempty"`
	// FastForward selects the cycle-skipping policy: "on" (the default) or
	// "off". Results are bit-identical either way (the repo's ffdiff gate),
	// but the mode is still part of the job identity so its effect on
	// wall-clock is attributable.
	FastForward string `json:"fast_forward,omitempty"`
}

// Normalize fills zero fields with the simulator defaults and canonicalizes
// the fast-forward spelling, so two requests meaning the same run hash to
// the same job ID.
func (o RunOptions) Normalize() RunOptions {
	d := sim.DefaultOptions()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.TargetInstructions == 0 {
		o.TargetInstructions = d.TargetInstructions
	}
	if o.WarmupRecords == 0 {
		o.WarmupRecords = d.WarmupRecords
	}
	if o.ProfileRecords == 0 {
		o.ProfileRecords = d.ProfileRecords
	}
	if o.Channels == 0 {
		o.Channels = 1
	}
	// Canonicalize recognized spellings ("always" → "on", "" → "on");
	// unknown ones pass through verbatim for Validate to reject.
	if m, err := sim.ParseFFMode(o.FastForward); err == nil {
		o.FastForward = m.String()
	}
	return o
}

// Validate rejects option values Normalize cannot canonicalize; Submit calls
// it so malformed requests fail at admission, not at run time.
func (o RunOptions) Validate() error {
	if _, err := sim.ParseFFMode(o.FastForward); err != nil {
		return fmt.Errorf("serve: options: %w", err)
	}
	return nil
}

// SimOptions maps the request options onto the sim.Options a job runs
// with. Stats collection is always on — single/mix reports need it — and
// the determinism gates (make serve-smoke, the httptest integration test)
// rebuild their direct-run reference through this same mapping.
func (o RunOptions) SimOptions() sim.Options {
	n := o.Normalize()
	// The parse error is unreachable for admitted jobs (Submit validates);
	// an unvalidated caller's unknown spelling falls back to the default.
	mode, _ := sim.ParseFFMode(n.FastForward)
	return sim.Options{
		Seed:               n.Seed,
		TargetInstructions: n.TargetInstructions,
		WarmupRecords:      n.WarmupRecords,
		ProfileRecords:     n.ProfileRecords,
		Channels:           n.Channels,
		FastForward:        mode,
		CollectStats:       true,
	}
}

// JobID derives the canonical job identity: a hash over the canonical JSON
// encodings of the spec and the normalized options. Identical submissions
// share an ID, before and after a daemon restart; single-flight coalescing
// and the result cache key on it.
func JobID(spec sim.Spec, opts RunOptions) (string, error) {
	sb, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("serve: spec: %w", err)
	}
	ob, err := json.Marshal(opts.Normalize())
	if err != nil {
		return "", fmt.Errorf("serve: options: %w", err)
	}
	h := sha256.New()
	h.Write(sb)
	h.Write([]byte{0})
	h.Write(ob)
	return "j" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// JobState is one job's lifecycle position. Transitions:
// queued → running → done | failed, and any pre-terminal state →
// interrupted on drain (resubmit after a restart; completed shards reload
// from the checkpoint store).
type JobState string

const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateInterrupted JobState = "interrupted"
)

// Job is one admitted simulation request. Identity fields are immutable;
// the mutable lifecycle (state, error, report) is guarded by mu, with
// shard progress in atomics so the engine's progress hook never contends.
type Job struct {
	id   string
	spec sim.Spec
	opts RunOptions
	seq  uint64 // admission order, for stable listings

	progressDone  atomic.Int64
	progressTotal atomic.Int64

	mu     sync.Mutex
	state  JobState
	err    error
	report []byte // canonical report document (JSON, trailing newline)
	done   chan struct{}
}

// ID returns the canonical job identity (see JobID).
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Progress is a job's shard-completion counter. Total is 0 until the first
// engine fan-out reports (single/mix runs have no shards and stay at 0/0).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the JSON status document of one job.
type JobStatus struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	state, err := j.state, j.err
	j.mu.Unlock()
	st := JobStatus{
		ID:    j.id,
		Kind:  j.spec.Kind(),
		State: state,
		Progress: Progress{
			Done:  int(j.progressDone.Load()),
			Total: int(j.progressTotal.Load()),
		},
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

// Report returns the canonical report document of a finished job.
// ErrNotReady while queued/running or after an interrupt; the run's own
// error for a failed job.
func (j *Job) Report() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.report, nil
	case StateFailed:
		return nil, j.err
	default:
		return nil, ErrNotReady
	}
}

// Wait blocks until the job finishes (or ctx expires) and returns its
// report as Report does.
func (j *Job) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-j.done:
		return j.Report()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// finish moves the job to a terminal state. Called once per job by the
// manager with the report (done), the error (failed), or the cancellation
// cause (interrupted).
func (j *Job) finish(state JobState, report []byte, err error) {
	j.mu.Lock()
	j.state = state
	j.report = report
	j.err = err
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}
