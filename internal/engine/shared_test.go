package engine

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedPoolBoundsAcrossMaps proves the NewSharedPool contract: two
// concurrent Map invocations on the same shared pool never exceed the
// pool's global concurrency bound, while a plain pool bounds per
// invocation only.
func TestSharedPoolBoundsAcrossMaps(t *testing.T) {
	const bound = 2
	pool := NewSharedPool(bound)
	var cur, peak atomic.Int32
	task := func(_ context.Context, i int, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return i, nil
	}
	items := make([]int, 8)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Map(context.Background(), pool, items, task); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeds shared bound %d", p, bound)
	}
}

// TestSharedPoolOrderPreserved checks the determinism contract survives the
// shared semaphore: results stay in input order with input-derived values.
func TestSharedPoolOrderPreserved(t *testing.T) {
	pool := NewSharedPool(3)
	items := make([]int, 50)
	for i := range items {
		items[i] = i * 7
	}
	out, err := Map(context.Background(), pool, items, func(_ context.Context, i int, v int) (int, error) {
		return v + i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != items[i]+i {
			t.Fatalf("out[%d] = %d, want %d", i, v, items[i]+i)
		}
	}
}

// TestCheckpointCorruptShardRecomputed is the robustness gate for the shard
// store: a truncated or garbage shard must be skipped with a warning and
// recomputed (then overwritten with a good shard), never abort the sweep.
func TestCheckpointCorruptShardRecomputed(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warnedKeys []string
	store = store.WithWarn(func(key string, err error) {
		if err == nil {
			t.Errorf("warn for %q with nil error", key)
		}
		warnedKeys = append(warnedKeys, key)
	})
	sub := store.Sub("fig12-seed1") // Sub must inherit the warning hook

	items := []string{"alpha", "beta", "gamma"}
	key := func(_ int, name string) string { return name }
	fn := func(_ context.Context, i int, _ string) (shardResult, error) {
		return shardResult{Index: i, Value: float64(i) + 0.5}, nil
	}

	// Seed a complete run.
	if _, err := MapCheckpointed(context.Background(), NewPool(2), sub, items, key, fn); err != nil {
		t.Fatal(err)
	}

	// Corrupt one shard with garbage and truncate another mid-token.
	garbage := filepath.Join(dir, "fig12-seed1", "alpha.json")
	if err := os.WriteFile(garbage, []byte("\x00not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "fig12-seed1", "beta.json")
	b, err := os.ReadFile(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: the two bad shards recompute (with warnings), gamma loads.
	var computed atomic.Int64
	out, err := MapCheckpointed(context.Background(), NewPool(1), sub, items, key,
		func(ctx context.Context, i int, name string) (shardResult, error) {
			computed.Add(1)
			return fn(ctx, i, name)
		})
	if err != nil {
		t.Fatalf("corrupt shards aborted the sweep: %v", err)
	}
	if computed.Load() != 2 {
		t.Fatalf("recomputed %d shards, want exactly the 2 corrupt ones", computed.Load())
	}
	if len(warnedKeys) != 2 {
		t.Fatalf("warned for %v, want the 2 corrupt shards", warnedKeys)
	}
	for i, r := range out {
		if r.Index != i || r.Value != float64(i)+0.5 {
			t.Fatalf("out[%d] = %+v", i, r)
		}
	}

	// The corrupt shards were overwritten: a fresh resume recomputes nothing.
	var again atomic.Int64
	if _, err := MapCheckpointed(context.Background(), NewPool(1), sub, items, key,
		func(ctx context.Context, i int, name string) (shardResult, error) {
			again.Add(1)
			return fn(ctx, i, name)
		}); err != nil {
		t.Fatal(err)
	}
	if again.Load() != 0 {
		t.Fatalf("recomputed %d shards after repair, want 0", again.Load())
	}
}
