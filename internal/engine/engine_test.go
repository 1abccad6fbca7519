package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 4, 16} {
		out, err := Map(context.Background(), NewPool(workers), items,
			func(_ context.Context, i int, item int) (int, error) {
				return item * item, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilPoolAndEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), nil, []int{1, 2, 3},
		func(_ context.Context, i int, item int) (int, error) { return item + 1, nil })
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("nil pool: out=%v err=%v", out, err)
	}
	out, err = Map(context.Background(), nil, nil,
		func(_ context.Context, i int, item int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

func TestMapFirstErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 64)
	var ran atomic.Int64
	_, err := Map(context.Background(), NewPool(8), items,
		func(_ context.Context, i int, _ int) (int, error) {
			ran.Add(1)
			if i == 3 {
				return 0, fmt.Errorf("task %d: %w", i, boom)
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// The error cancels the run: later tasks must not all have started.
	if n := ran.Load(); n == int64(len(items)) {
		t.Errorf("all %d tasks ran despite an early error", n)
	}
}

// TestMapReportsCauseNotCancellation fails task 1 while task 0 only waits
// for the cancellation that failure triggers: Map must report the failure,
// not the lower-indexed task's context.Canceled.
func TestMapReportsCauseNotCancellation(t *testing.T) {
	boom := errors.New("boom")
	for run := 0; run < 20; run++ {
		_, err := Map(context.Background(), NewPool(2), []int{0, 1},
			func(ctx context.Context, i int, _ int) (int, error) {
				if i == 1 {
					return 0, boom
				}
				<-ctx.Done()
				return 0, ctx.Err()
			})
		if !errors.Is(err, boom) {
			t.Fatalf("run %d: err = %v, want the failure that caused the cancellation", run, err)
		}
	}
}

func TestMapCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 1000)
	var started atomic.Int64
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, NewPool(4), items,
			func(ctx context.Context, i int, _ int) (int, error) {
				if started.Add(1) == 1 {
					cancel() // cancel mid-run from inside the first task
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Millisecond):
					return 0, nil
				}
			})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not stop after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= int64(len(items)) {
		t.Errorf("cancellation did not stop the fan-out (%d tasks started)", n)
	}
}

func TestMapPanicSurfacesAsError(t *testing.T) {
	items := make([]int, 32)
	finished := make(chan error, 1)
	go func() {
		_, err := Map(context.Background(), NewPool(4), items,
			func(_ context.Context, i int, _ int) (int, error) {
				if i == 5 {
					panic("kaboom")
				}
				return 0, nil
			})
		finished <- err
	}()
	select {
	case err := <-finished:
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("err = %v, want panic message", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool deadlocked after a task panic")
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	items := []int{1, 2, 3, 4, 5}
	if err := ForEach(context.Background(), NewPool(3), items,
		func(_ context.Context, _ int, item int) error {
			sum.Add(int64(item))
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 15 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestProgressReporting(t *testing.T) {
	const n = 20
	var calls []int
	pool := NewPool(4).WithProgress(func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		calls = append(calls, done) // serialized by the engine
	})
	if err := ForEach(context.Background(), pool, make([]int, n),
		func(_ context.Context, _ int, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(calls) != n {
		t.Fatalf("progress called %d times, want %d", len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("done sequence not strictly increasing: %v", calls)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	// Deterministic.
	if DeriveSeed(7, 3) != DeriveSeed(7, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}
	// Distinct across indices and bases (no collisions in a modest window).
	seen := map[int64]bool{}
	for base := int64(0); base < 8; base++ {
		for i := 0; i < 1000; i++ {
			s := DeriveSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base=%d index=%d", base, i)
			}
			seen[s] = true
		}
	}
	// Independent of any sharding: the seed is a pure function of
	// (base, index), which is the whole determinism argument.
	if uint64(DeriveSeed(1, 0)) == SplitMix64(1) {
		t.Error("DeriveSeed(base, 0) should differ from SplitMix64(base)")
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	// A seeded pseudo-random task: parallel results must be bit-identical
	// to workers=1 because each task derives its own seed.
	items := make([]int, 200)
	task := func(_ context.Context, i int, _ int) (uint64, error) {
		return SplitMix64(uint64(DeriveSeed(42, i))), nil
	}
	serial, err := Map(context.Background(), NewPool(1), items, task)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(context.Background(), NewPool(16), items, task)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result %d differs: %d vs %d", i, serial[i], parallel[i])
		}
	}
}
