package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"clrdram/internal/engine"
	"clrdram/internal/workload"
)

// withWorkers returns opts pinned to a worker count.
func withWorkers(opts Options, n int) Options {
	opts.Workers = n
	return opts
}

func TestFig12ParallelMatchesSerial(t *testing.T) {
	// Acceptance: workers=1 and workers=8 produce identical results for the
	// same seed — the engine's determinism contract at the driver level.
	profiles := tinyProfiles()[:2]
	out, err := Run(context.Background(), Fig12Spec(profiles), withWorkers(tinyOpts(), 1))
	if err != nil {
		t.Fatal(err)
	}
	serial := *out.Fig12
	out, err = Run(context.Background(), Fig12Spec(profiles), withWorkers(tinyOpts(), 8))
	if err != nil {
		t.Fatal(err)
	}
	parallel := *out.Fig12
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Fig12 differs between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, parallel)
	}
}

func TestFig13ParallelMatchesSerial(t *testing.T) {
	opts := tinyOpts()
	opts.TargetInstructions = 15_000
	ps := tinyProfiles()
	light := workload.Profile{Name: "x-light", Pattern: workload.PatternRandom,
		FootprintPages: 128, BubbleMean: 12, WriteFrac: 0.2}
	groups := map[string][]workload.Mix{
		"H": {{Name: "H00", Profiles: [4]workload.Profile{ps[0], ps[1], ps[2], ps[0]}}},
		"L": {{Name: "L00", Profiles: [4]workload.Profile{light, light, light, light}}},
	}
	out, err := Run(context.Background(), Fig13Spec(groups), withWorkers(opts, 1))
	if err != nil {
		t.Fatal(err)
	}
	serial := *out.Fig13
	out, err = Run(context.Background(), Fig13Spec(groups), withWorkers(opts, 8))
	if err != nil {
		t.Fatal(err)
	}
	parallel := *out.Fig13
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Fig13 differs between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, parallel)
	}
}

func TestFig12CheckpointRoundTrip(t *testing.T) {
	store, err := engine.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := tinyProfiles()[:2]
	opts := withWorkers(tinyOpts(), 4)
	opts.Checkpoint = store

	out, err := Run(context.Background(), Fig12Spec(profiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	first := *out.Fig12
	// Poison one persisted shard under its content key: if the second run
	// resumes from the store (instead of recomputing), the poisoned baseline
	// record must surface verbatim.
	rowStore, err := opts.shardStore()
	if err != nil {
		t.Fatal(err)
	}
	key, err := contentKey(singleRow(profiles[0], sweepConfigs()...))
	if err != nil {
		t.Fatal(err)
	}
	var recs []runRecord
	if ok, err := rowStore.Load(key, &recs); !ok || err != nil {
		t.Fatalf("row shard %s not persisted (err %v)", key, err)
	}
	recs[0].MPKI = 12345
	if err := rowStore.Save(key, recs); err != nil {
		t.Fatal(err)
	}
	out, err = Run(context.Background(), Fig12Spec(profiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	second := *out.Fig12
	if second.Rows[0].MPKI != 12345 {
		t.Error("second run recomputed a shard that was checkpointed")
	}
	if !reflect.DeepEqual(second.Rows[1], first.Rows[1]) {
		t.Error("untouched checkpointed shard changed across resume")
	}

	// A different seed must not reuse the poisoned shard (namespace pins
	// the run-shaping options).
	opts.Seed = 99
	out, err = Run(context.Background(), Fig12Spec(profiles), opts)
	if err != nil {
		t.Fatal(err)
	}
	other := *out.Fig12
	if other.Rows[0].MPKI == 12345 {
		t.Error("checkpoint namespace leaked across seeds")
	}
}

// TestCheckpointNamespaceCoversComposition runs a default Fig. 12 sweep into
// a store, then an fcfs/closed sweep into the same store: the second must
// equal the same sweep run without a store, so no shard of the default run
// leaks into it. Options that move no simulated value (workers, fast-forward,
// stats) keep the namespace, so a rerun under them still resumes.
func TestCheckpointNamespaceCoversComposition(t *testing.T) {
	store, err := engine.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := tinyProfiles()[:2]
	def := withWorkers(tinyOpts(), 2)
	def.Checkpoint = store
	if _, err := Run(context.Background(), Fig12Spec(profiles), def); err != nil {
		t.Fatal(err)
	}

	alt := def
	alt.Mem.Scheduler, alt.Mem.RowPolicy = "fcfs", "closed"
	out, err := Run(context.Background(), Fig12Spec(profiles), alt)
	if err != nil {
		t.Fatal(err)
	}
	got := *out.Fig12
	alt.Checkpoint = nil
	out, err = Run(context.Background(), Fig12Spec(profiles), alt)
	if err != nil {
		t.Fatal(err)
	}
	if want := *out.Fig12; !reflect.DeepEqual(got, want) {
		t.Fatalf("fcfs/closed sweep differs from its store-free run: it resumed from the default run's shards (first row baseline IPC %v, want %v)",
			got.Rows[0].BaselineIPC, want.Rows[0].BaselineIPC)
	}

	same := def
	same.Workers, same.FastForward, same.CollectStats = 1, FFOff, true
	a, err := def.shardStore()
	if err != nil {
		t.Fatal(err)
	}
	b, err := same.shardStore()
	if err != nil {
		t.Fatal(err)
	}
	if a.Dir() != b.Dir() {
		t.Errorf("workers, fast-forward and stats moved the namespace: %s vs %s", a.Dir(), b.Dir())
	}
}

// TestSweepShardKeyCoversProfile runs a Fig. 12 sweep of one profile into a
// store, then a sweep of a differently-parameterised profile under the same
// name: the second must equal its store-free run, so a shard is keyed by the
// row's content, not by a profile name.
func TestSweepShardKeyCoversProfile(t *testing.T) {
	store, err := engine.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := withWorkers(tinyOpts(), 2)
	opts.Checkpoint = store
	p := tinyProfiles()[0]
	if _, err := Run(context.Background(), Fig12Spec([]workload.Profile{p}), opts); err != nil {
		t.Fatal(err)
	}
	q := p
	q.FootprintPages *= 4
	q.BubbleMean += 7
	out, err := Run(context.Background(), Fig12Spec([]workload.Profile{q}), opts)
	if err != nil {
		t.Fatal(err)
	}
	got := *out.Fig12
	opts.Checkpoint = nil
	out, err = Run(context.Background(), Fig12Spec([]workload.Profile{q}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := *out.Fig12; !reflect.DeepEqual(got, want) {
		t.Fatalf("same-name profile resumed another profile's shard: baseline IPC %v, store-free run %v",
			got.Rows[0].BaselineIPC, want.Rows[0].BaselineIPC)
	}
}

func TestProgressReportedFromDriver(t *testing.T) {
	var mu sync.Mutex
	var last, total int
	opts := withWorkers(tinyOpts(), 4)
	opts.TargetInstructions = 10_000
	opts.Progress = func(d, tot int) {
		mu.Lock()
		last, total = d, tot
		mu.Unlock()
	}
	if _, err := Run(context.Background(), Fig12Spec(tinyProfiles()[:2]), opts); err != nil {
		t.Fatal(err)
	}
	if last != 2 || total != 2 {
		t.Fatalf("final progress = %d/%d, want 2/2", last, total)
	}
}
