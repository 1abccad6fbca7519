// Package engine is the experiment-execution subsystem: a deterministic
// parallel job engine for the embarrassingly-parallel workloads of the
// evaluation — Monte Carlo circuit sweeps (§7.1) and the system-level
// sweeps of Figures 12, 13 and 15 and §9, one workload row per task.
//
// Determinism contract: a task's result may depend only on its input item,
// its index, and a seed derived from (baseSeed, index) via DeriveSeed —
// never on worker identity, scheduling order, or shared mutable state.
// Under that contract Map returns results that are bit-identical to a
// serial run regardless of the worker count, and any order-insensitive
// reduction (max, sum, map assembly) over them is likewise identical.
//
// The three layers:
//
//   - Pool + Map/ForEach: bounded fan-out with context cancellation,
//     first-error propagation and panic capture, preserving input order;
//   - DeriveSeed/SplitMix64: per-task seed streams that do not change when
//     the iteration space is sharded differently;
//   - Store + MapCheckpointed: sharded JSON persistence so an interrupted
//     paper-scale run resumes from its completed shards.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress receives (done, total) after each task completes. Calls are
// serialized by the engine (never concurrent), done is strictly increasing,
// and the final call of an error-free run has done == total.
type Progress func(done, total int)

// Pool bounds the number of concurrently running tasks. The zero worker
// count (or a nil *Pool passed to Map/ForEach) means runtime.GOMAXPROCS(0).
// A Pool is a reusable width-plus-hooks configuration, not a set of live
// goroutines: each Map call spawns and joins its own workers.
type Pool struct {
	workers  int
	progress Progress
	timer    *Timer
	// sem, when non-nil, is a semaphore shared by every Map/ForEach call on
	// this pool (and on hook-carrying copies of it): a task must hold a slot
	// while it runs, so the total number of in-flight tasks across all
	// concurrent calls never exceeds cap(sem). See NewSharedPool.
	sem chan struct{}
}

// NewPool returns a pool running at most workers tasks at once;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// NewSharedPool returns a pool whose concurrency bound is global: at most
// workers tasks run at once across every concurrent Map/ForEach invocation
// that uses the pool (or a WithProgress/WithTimer copy of it), not per
// invocation. This is the pool a multi-tenant caller — the clrserve job
// server — hands to many simultaneous sweeps so they share one machine-wide
// budget instead of multiplying it.
//
// The determinism contract is unchanged: results are keyed by input index,
// so sharing only shapes scheduling, never values. Tasks must not invoke
// Map/ForEach on the same shared pool from inside a task (the engine's
// drivers never nest); a nested call could hold every slot and deadlock.
func NewSharedPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers reports the concurrency bound.
func (p *Pool) Workers() int {
	if p == nil {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// WithProgress returns a copy of the pool that reports task completion
// through fn.
func (p *Pool) WithProgress(fn Progress) *Pool {
	q := *p
	q.progress = fn
	return &q
}

// Map runs fn over every item on the pool and returns the results in input
// order. On failure it cancels the task context, waits for in-flight tasks
// to drain (tasks not yet started are skipped) and returns the error of the
// lowest-indexed task observed to fail; a task that failed only with that
// cancellation never displaces a real failure, and panics surface as errors.
// If ctx is cancelled mid-run, Map stops promptly and returns ctx.Err().
func Map[I, O any](ctx context.Context, pool *Pool, items []I, fn func(ctx context.Context, index int, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	if pool == nil {
		pool = NewPool(0)
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if pool.timer != nil {
		start := time.Now()
		defer func() { pool.timer.addRun(time.Since(start), pool.Workers()) }()
	}
	workers := pool.workers
	if workers > len(items) {
		workers = len(items)
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		done     int
		firstErr error
		errIndex = -1
		errEcho  bool // firstErr only echoes the cancellation of tctx
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || tctx.Err() != nil {
					return
				}
				if pool.sem != nil {
					select {
					case pool.sem <- struct{}{}:
					case <-tctx.Done():
						return
					}
				}
				var taskStart time.Time
				if pool.timer != nil {
					taskStart = time.Now()
				}
				res, err := runTask(tctx, i, items[i], fn)
				if pool.timer != nil {
					pool.timer.addTask(time.Since(taskStart))
				}
				if pool.sem != nil {
					<-pool.sem
				}
				mu.Lock()
				if err != nil {
					echo := tctx.Err() != nil && errors.Is(err, context.Canceled)
					if errIndex < 0 || errEcho && !echo || echo == errEcho && i < errIndex {
						errIndex, firstErr, errEcho = i, err, echo
					}
					mu.Unlock()
					cancel()
					continue
				}
				out[i] = res
				done++
				if pool.progress != nil {
					pool.progress(done, len(items))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if errIndex >= 0 {
		return nil, firstErr
	}
	return out, nil
}

// runTask invokes fn with panic capture, so one panicking task surfaces as
// an error instead of killing the process (and cannot deadlock the pool).
func runTask[I, O any](ctx context.Context, i int, item I, fn func(ctx context.Context, index int, item I) (O, error)) (res O, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task %d panicked: %v", i, r)
		}
	}()
	return fn(ctx, i, item)
}

// ForEach is Map without results.
func ForEach[I any](ctx context.Context, pool *Pool, items []I, fn func(ctx context.Context, index int, item I) error) error {
	_, err := Map(ctx, pool, items, func(ctx context.Context, i int, item I) (struct{}, error) {
		return struct{}{}, fn(ctx, i, item)
	})
	return err
}
