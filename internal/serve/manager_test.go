package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"clrdram/internal/sim"
	"clrdram/internal/workload"
)

// testSpec builds the u-th distinct job identity (seed varies).
func testSpec(t *testing.T, u int) (sim.Spec, RunOptions) {
	t.Helper()
	return sim.Fig12Spec(workload.All()[:1]), RunOptions{Seed: int64(u + 1), TargetInstructions: 10_000}
}

// stubManager builds a manager whose runFn is the given stub — no real
// simulations, so tests control job timing exactly.
func stubManager(t *testing.T, cfg Config, runFn func(ctx context.Context, j *Job) ([]byte, error)) *Manager {
	t.Helper()
	m := NewManager(cfg)
	if runFn != nil {
		m.runFn = runFn
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return m
}

func TestSingleFlightDedup(t *testing.T) {
	var invocations atomic.Int64
	release := make(chan struct{})
	m := stubManager(t, Config{MaxConcurrent: 2}, func(ctx context.Context, j *Job) ([]byte, error) {
		invocations.Add(1)
		select {
		case <-release:
			return []byte("report-" + j.ID()), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	spec, opts := testSpec(t, 0)

	// Two concurrent identical submissions must coalesce onto one job...
	r1, err := m.Submit(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Submit(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Deduped || !r2.Deduped || r2.Cached {
		t.Fatalf("admissions: first %+v, second %+v", r1, r2)
	}
	if r1.Job != r2.Job {
		t.Fatalf("submissions got different jobs: %s vs %s", r1.Job.ID(), r2.Job.ID())
	}

	// ...and both callers receive the full report from the single run.
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b1, err := r1.Job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) || len(b1) == 0 {
		t.Fatalf("reports diverged: %q vs %q", b1, b2)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("spec executed %d times, want 1 (single-flight)", n)
	}

	// A third identical submission after completion is a cache hit.
	r3, err := m.Submit(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Fatalf("post-completion resubmit not cached: %+v", r3)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("cache hit re-executed the spec (%d invocations)", n)
	}
}

func TestQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	m := stubManager(t, Config{MaxConcurrent: 1, MaxQueued: 2}, func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("ok"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer close(release)

	// One running + two queued fills the backlog (the running job left the
	// queue); the next distinct submission must be rejected with the typed
	// error, not buffered.
	for u := 0; u < 3; u++ {
		spec, opts := testSpec(t, u)
		if _, err := m.Submit(spec, opts); err != nil {
			t.Fatalf("submit %d: %v", u, err)
		}
	}
	spec, opts := testSpec(t, 3)
	_, err := m.Submit(spec, opts)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	// Dedup of an already-queued job is NOT new work and must still pass.
	spec0, opts0 := testSpec(t, 1)
	r, err := m.Submit(spec0, opts0)
	if err != nil || !r.Deduped {
		t.Fatalf("dedup during saturation: %+v, %v", r, err)
	}
}

func TestDrainInterruptsJobs(t *testing.T) {
	started := make(chan struct{}, 8)
	m := NewManager(Config{MaxConcurrent: 1})
	m.runFn = func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done() // runs until drained
		return nil, ctx.Err()
	}

	// One running + one queued.
	spec0, opts0 := testSpec(t, 0)
	r0, err := m.Submit(spec0, opts0)
	if err != nil {
		t.Fatal(err)
	}
	spec1, opts1 := testSpec(t, 1)
	r1, err := m.Submit(spec1, opts1)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Drain with an immediate deadline: the queued job is interrupted at
	// once, the running one is cancelled when the deadline passes.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if err := m.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: err = %v, want deadline exceeded (running job held on)", err)
	}
	if s := r0.Job.State(); s != StateInterrupted {
		t.Fatalf("running job state after drain: %s", s)
	}
	if s := r1.Job.State(); s != StateInterrupted {
		t.Fatalf("queued job state after drain: %s", s)
	}
	if _, err := m.Submit(spec0, opts0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}
}

func TestResultCacheEviction(t *testing.T) {
	m := stubManager(t, Config{MaxConcurrent: 1, CacheEntries: 2},
		func(ctx context.Context, j *Job) ([]byte, error) { return []byte("ok"), nil })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	jobs := make([]*Job, 3)
	for u := 0; u < 3; u++ {
		spec, opts := testSpec(t, u)
		r, err := m.Submit(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		jobs[u] = r.Job
	}

	// Oldest job evicted past the bound; newer two retained.
	if _, err := m.Job(jobs[0].ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still retained: err = %v", err)
	}
	for _, j := range jobs[1:] {
		if _, err := m.Job(j.ID()); err != nil {
			t.Fatalf("job %s evicted early: %v", j.ID(), err)
		}
	}

	// Resubmitting the evicted identity re-executes it (no stale answer).
	spec, opts := testSpec(t, 0)
	r, err := m.Submit(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached || r.Deduped {
		t.Fatalf("evicted identity did not re-execute: %+v", r)
	}
	if _, err := r.Job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestJobsListingOrderAndStatus(t *testing.T) {
	m := stubManager(t, Config{MaxConcurrent: 1},
		func(ctx context.Context, j *Job) ([]byte, error) { return []byte("ok"), nil })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var ids []string
	var last *Job
	for u := 0; u < 3; u++ {
		spec, opts := testSpec(t, u)
		r, err := m.Submit(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.Job.ID())
		last = r.Job
	}
	if _, err := last.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	list := m.Jobs()
	if len(list) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("listing out of admission order: %+v, want IDs %v", list, ids)
		}
		if st.Kind != "fig12" {
			t.Fatalf("job %d kind = %q", i, st.Kind)
		}
	}

	snap := m.MetricsSnapshot()
	if n := snap.Counters["serve.jobs_done"]; n != 3 {
		t.Fatalf("metrics snapshot: serve.jobs_done = %d, want 3 (%+v)", n, snap.Counters)
	}
}
