// Package serve is the simulation-as-a-service subsystem behind the
// clrserve daemon: a job manager that runs submitted simulation specs
// (sim.Spec, JSON-encoded) on one shared, bounded engine pool and keeps
// their canonical reports.
//
// How the manager admits and runs jobs:
//
//   - a bounded backlog (ErrQueueFull past Config.MaxQueued) keeps a
//     flood of submissions from growing server memory without limit;
//   - queued jobs start in admission order (one FIFO);
//   - identical in-flight submissions coalesce into one job
//     (single-flight, keyed by the canonical spec+options hash), and
//     completed jobs are retained as a bounded result cache;
//   - all jobs share one engine.NewSharedPool, so total simulation
//     fan-out is one machine-wide budget no matter how many jobs run;
//   - with a checkpoint store attached, completed sweep rows (one shard
//     each, keyed by the row's content: a Figure 12 workload row, a
//     Figure 13 alone-IPC baseline) persist across jobs and daemon
//     restarts, so a later job reuses every row it shares with an earlier
//     one and a resubmitted sweep reloads every row it completed.
//
// SERVING.md documents the HTTP surface, job lifecycle and semantics.
package serve

import (
	"context"
	"fmt"
	"sync"

	"clrdram/internal/engine"
	"clrdram/internal/metrics"
	"clrdram/internal/sim"
)

// Config shapes a Manager. Zero fields select the documented defaults.
type Config struct {
	// Workers bounds the total simulation fan-out across ALL concurrently
	// running jobs (one engine.NewSharedPool). 0 = GOMAXPROCS.
	Workers int
	// MaxConcurrent is the number of jobs simulated at once (each fans its
	// shards out on the shared pool). Default 2.
	MaxConcurrent int
	// MaxQueued bounds the admission backlog; overflow is rejected with
	// ErrQueueFull. Default 64.
	MaxQueued int
	// CacheEntries bounds how many completed (done or failed) jobs are
	// retained for result-cache hits; the oldest are evicted first.
	// Default 256.
	CacheEntries int
	// Store, when non-nil, persists the sweep shard checkpoints shared by
	// every job under "shards/..." in its root: the memoised cross-job
	// cache of sweep rows (alone-IPC baselines and figure rows alike),
	// which outlives a daemon restart.
	Store *engine.Store
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	return c
}

// counters groups the manager's metrics instruments (created once, updated
// lock-free).
type counters struct {
	submitted, admitted       *metrics.Counter
	dedupHits, cacheHits      *metrics.Counter
	rejQueueFull, rejDraining *metrics.Counter
	jobsDone, jobsFailed      *metrics.Counter
	jobsInterrupted           *metrics.Counter
	queueDepth, running       *metrics.Gauge
	retained                  *metrics.Gauge
}

// Manager owns the job table, the admission queue and the shared engine
// pool. All exported methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	pool   *engine.Pool
	reg    *metrics.Registry
	ctr    counters
	shards *engine.Store // sweep shard checkpoints, shared by all jobs

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*Job // every known job by ID (active + retained)
	queue     []*Job          // FIFO backlog
	runningN  int
	doneOrder []string // completed job IDs, oldest first (cache eviction)
	draining  bool
	seq       uint64

	// runFn executes one job and returns its canonical report document;
	// tests substitute a stub to control timing without real simulations.
	runFn func(ctx context.Context, j *Job) ([]byte, error)
}

// NewManager builds a manager. Call Drain to shut down.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	m := &Manager{
		cfg:  cfg,
		pool: engine.NewSharedPool(cfg.Workers),
		reg:  reg,
		jobs: make(map[string]*Job),
	}
	m.rootCtx, m.rootCancel = context.WithCancel(context.Background())
	m.ctr = counters{
		submitted:       reg.Counter("serve.submitted"),
		admitted:        reg.Counter("serve.admitted"),
		dedupHits:       reg.Counter("serve.dedup_hits"),
		cacheHits:       reg.Counter("serve.cache_hits"),
		rejQueueFull:    reg.Counter("serve.rejected_queue_full"),
		rejDraining:     reg.Counter("serve.rejected_draining"),
		jobsDone:        reg.Counter("serve.jobs_done"),
		jobsFailed:      reg.Counter("serve.jobs_failed"),
		jobsInterrupted: reg.Counter("serve.jobs_interrupted"),
		queueDepth:      reg.Gauge("serve.queue_depth"),
		running:         reg.Gauge("serve.running"),
		retained:        reg.Gauge("serve.jobs_retained"),
	}
	if cfg.Store != nil {
		corrupt := reg.Counter("serve.shards_corrupt")
		m.shards = cfg.Store.WithWarn(func(key string, err error) {
			corrupt.Inc()
			m.logf("checkpoint: skipping corrupt shard %s: %v", key, err)
		}).Sub("shards")
	}
	m.runFn = m.simRun
	return m
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// SubmitResult is the admission outcome: the job (new, coalesced, or a
// retained completed one) plus which of the three it was.
type SubmitResult struct {
	Job     *Job
	Deduped bool // coalesced onto an identical queued/running job
	Cached  bool // identical job already completed and retained
}

// Submit admits one simulation request. Identical requests (same canonical
// spec+options) coalesce: onto the in-flight job if one exists
// (single-flight; both callers observe the same job), or onto the retained
// result if the job already completed. New work must fit the backlog bound.
func (m *Manager) Submit(spec sim.Spec, opts RunOptions) (SubmitResult, error) {
	if err := opts.Validate(); err != nil {
		return SubmitResult{}, err
	}
	opts = opts.Normalize()
	id, err := JobID(spec, opts)
	if err != nil {
		return SubmitResult{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctr.submitted.Inc()
	if m.draining {
		m.ctr.rejDraining.Inc()
		return SubmitResult{}, ErrDraining
	}
	if j := m.jobs[id]; j != nil {
		if s := j.State(); s == StateDone || s == StateFailed {
			m.ctr.cacheHits.Inc()
			m.touchLocked(id)
			return SubmitResult{Job: j, Cached: true}, nil
		}
		m.ctr.dedupHits.Inc()
		return SubmitResult{Job: j, Deduped: true}, nil
	}
	if len(m.queue) >= m.cfg.MaxQueued {
		m.ctr.rejQueueFull.Inc()
		return SubmitResult{}, fmt.Errorf("%w (%d queued)", ErrQueueFull, len(m.queue))
	}
	m.seq++
	j := &Job{
		id:    id,
		spec:  spec,
		opts:  opts,
		seq:   m.seq,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	m.jobs[id] = j
	m.queue = append(m.queue, j)
	m.ctr.admitted.Inc()
	m.dispatchLocked()
	return SubmitResult{Job: j}, nil
}

// dispatchLocked starts queued jobs, oldest first, while running slots are
// free.
func (m *Manager) dispatchLocked() {
	for m.runningN < m.cfg.MaxConcurrent && len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.runningN++
		j.setState(StateRunning)
		m.wg.Add(1)
		go m.run(j)
	}
	m.updateGaugesLocked()
}

// run executes one job to a terminal state.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	report, err := m.runFn(m.rootCtx, j)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.runningN--
	switch {
	case err != nil && m.rootCtx.Err() != nil:
		// Cancelled by a drain that timed out: with a store attached, the
		// shards it completed are on disk for a resubmission after restart.
		j.finish(StateInterrupted, nil, err)
		m.ctr.jobsInterrupted.Inc()
		m.logf("job %s (%s) interrupted: %v", j.id, j.spec.Kind(), err)
	case err != nil:
		j.finish(StateFailed, nil, err)
		m.ctr.jobsFailed.Inc()
		m.retainLocked(j.id)
		m.logf("job %s (%s) failed: %v", j.id, j.spec.Kind(), err)
	default:
		j.finish(StateDone, report, nil)
		m.ctr.jobsDone.Inc()
		m.retainLocked(j.id)
		m.logf("job %s (%s) done: %d report bytes", j.id, j.spec.Kind(), len(report))
	}
	m.dispatchLocked()
}

// simRun is the production runFn: execute the spec on the shared pool with
// the shared checkpoint store and render the canonical report.
func (m *Manager) simRun(ctx context.Context, j *Job) ([]byte, error) {
	opts := j.opts.SimOptions()
	opts.SharedPool = m.pool
	opts.Checkpoint = m.shards
	opts.Progress = func(done, total int) {
		j.progressDone.Store(int64(done))
		j.progressTotal.Store(int64(total))
	}
	out, err := sim.Run(ctx, j.spec, opts)
	if err != nil {
		return nil, err
	}
	return ReportBytes(j.spec, out, opts)
}

// retainLocked appends a completed job to the result-cache order and
// evicts past the bound.
func (m *Manager) retainLocked(id string) {
	m.doneOrder = append(m.doneOrder, id)
	for len(m.doneOrder) > m.cfg.CacheEntries {
		victim := m.doneOrder[0]
		m.doneOrder = m.doneOrder[1:]
		delete(m.jobs, victim)
	}
	m.updateGaugesLocked()
}

// touchLocked marks a retained job recently used.
func (m *Manager) touchLocked(id string) {
	for i, v := range m.doneOrder {
		if v == id {
			m.doneOrder = append(append(m.doneOrder[:i:i], m.doneOrder[i+1:]...), id)
			return
		}
	}
}

func (m *Manager) updateGaugesLocked() {
	m.ctr.queueDepth.Set(float64(len(m.queue)))
	m.ctr.running.Set(float64(m.runningN))
	m.ctr.retained.Set(float64(len(m.doneOrder)))
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists every known job (active and retained) in admission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	m.mu.Unlock()
	for i := 1; i < len(all); i++ {
		for k := i; k > 0 && all[k-1].seq > all[k].seq; k-- {
			all[k-1], all[k] = all[k], all[k-1]
		}
	}
	out := make([]JobStatus, len(all))
	for i, j := range all {
		out[i] = j.Status()
	}
	return out
}

// Stats is a point-in-time summary for /healthz.
type Stats struct {
	Draining bool `json:"draining"`
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Retained int  `json:"retained"`
}

// Stats snapshots the queue.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Draining: m.draining,
		Queued:   len(m.queue),
		Running:  m.runningN,
		Retained: len(m.doneOrder),
	}
}

// MetricsSnapshot captures the server registry (gauges refreshed first).
func (m *Manager) MetricsSnapshot() metrics.Snapshot {
	m.mu.Lock()
	m.updateGaugesLocked()
	m.mu.Unlock()
	return m.reg.Snapshot()
}

// Drain stops admission (ErrDraining), interrupts the backlog, and waits —
// up to ctx — for running jobs to finish and flush their reports. When ctx
// expires first, the running jobs are cancelled; every shard they completed
// is already checkpointed, so resubmitting them after a restart with the
// same store reloads those shards.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		for _, j := range m.queue {
			j.finish(StateInterrupted, nil, ErrDraining)
			m.ctr.jobsInterrupted.Inc()
		}
		m.queue = nil
		m.updateGaugesLocked()
	}
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		m.rootCancel() // interrupt running jobs; shards are checkpointed
		<-finished
	}
	m.rootCancel()
	return err
}
