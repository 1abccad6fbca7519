package engine

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

type shardResult struct {
	Index int
	Value float64
}

func TestCheckpointResumeSkipsCompletedShards(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sub := store.Sub("fig12-seed1-n1000")
	items := []string{"mcf", "lbm", "soplex", "milc", "gems"}
	key := func(_ int, name string) string { return name }

	var computed atomic.Int64
	run := func(failAt string) ([]shardResult, error) {
		return MapCheckpointed(context.Background(), NewPool(2), sub, items, key,
			func(_ context.Context, i int, name string) (shardResult, error) {
				computed.Add(1)
				if name == failAt {
					return shardResult{}, os.ErrDeadlineExceeded
				}
				return shardResult{Index: i, Value: float64(i) * 1.5}, nil
			})
	}

	// First run fails partway: some shards persist, the run errors.
	if _, err := run("milc"); err == nil {
		t.Fatal("expected first run to fail")
	}
	after := computed.Load()
	if after == 0 {
		t.Fatal("no shards computed before the failure")
	}

	// Resume: completed shards load from disk, only missing ones recompute.
	out, err := run("")
	if err != nil {
		t.Fatal(err)
	}
	recomputed := computed.Load() - after
	if recomputed >= int64(len(items)) {
		t.Fatalf("resume recomputed %d shards, want fewer than %d", recomputed, len(items))
	}
	for i, r := range out {
		if r.Index != i || r.Value != float64(i)*1.5 {
			t.Fatalf("out[%d] = %+v", i, r)
		}
	}

	// A third run is a pure replay: zero recomputation.
	before := computed.Load()
	if _, err := run(""); err != nil {
		t.Fatal(err)
	}
	if computed.Load() != before {
		t.Error("fully-checkpointed run still recomputed shards")
	}
}

func TestNilStoreDisablesCheckpointing(t *testing.T) {
	var s *Store
	if s.Sub("x") != nil {
		t.Error("Sub of nil store should be nil")
	}
	if s.WithWarn(func(string, error) {}) != nil {
		t.Error("WithWarn of nil store should be nil")
	}
	var v shardResult
	if ok, err := s.Load("k", &v); ok || err != nil {
		t.Errorf("nil Load = (%v, %v)", ok, err)
	}
	if err := s.Save("k", v); err != nil {
		t.Errorf("nil Save = %v", err)
	}
	var n atomic.Int64
	out, err := MapCheckpointed(context.Background(), NewPool(2), nil, []int{1, 2},
		func(_ int, v int) string { return "k" },
		func(_ context.Context, i int, v int) (int, error) { n.Add(1); return v, nil })
	if err != nil || len(out) != 2 || n.Load() != 2 {
		t.Fatalf("nil-store MapCheckpointed: out=%v err=%v computed=%d", out, err, n.Load())
	}
}

func TestStoreSanitizesKeys(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "462.libquantum-like/../../evil frac=0.25"
	if err := store.Save(key, shardResult{Value: 1}); err != nil {
		t.Fatal(err)
	}
	var v shardResult
	if ok, _ := store.Load(key, &v); !ok || v.Value != 1 {
		t.Fatalf("round trip failed: ok=%v v=%+v", ok, v)
	}
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Ext(entries[0].Name()) != ".json" {
		t.Fatalf("unexpected checkpoint layout: %v", entries)
	}
}

func TestCorruptShardIsRecomputed(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "bad.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v shardResult
	if ok, err := store.Load("bad", &v); ok || err != nil {
		t.Fatalf("corrupt shard should be a miss: ok=%v err=%v", ok, err)
	}
}
