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
	out, err := Run(context.Background(), Fig12Spec(profiles), WithOptions(withWorkers(tinyOpts(), 1)))
	if err != nil {
		t.Fatal(err)
	}
	serial := *out.Fig12
	out, err = Run(context.Background(), Fig12Spec(profiles), WithOptions(withWorkers(tinyOpts(), 8)))
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
	out, err := Run(context.Background(), Fig13Spec(groups), WithOptions(withWorkers(opts, 1)))
	if err != nil {
		t.Fatal(err)
	}
	serial := *out.Fig13
	out, err = Run(context.Background(), Fig13Spec(groups), WithOptions(withWorkers(opts, 8)))
	if err != nil {
		t.Fatal(err)
	}
	parallel := *out.Fig13
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Fig13 differs between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, parallel)
	}
}

func TestAloneIPCsParallelMatchesSerial(t *testing.T) {
	ps := tinyProfiles()
	// Duplicated profiles across mixes exercise the memoisation dedup.
	mixes := []workload.Mix{
		{Name: "m0", Profiles: [4]workload.Profile{ps[0], ps[1], ps[0], ps[1]}},
		{Name: "m1", Profiles: [4]workload.Profile{ps[2], ps[0], ps[1], ps[2]}},
	}
	opts := tinyOpts()
	opts.TargetInstructions = 15_000
	serial, err := aloneIPCs(context.Background(), mixes, withWorkers(opts, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := aloneIPCs(context.Background(), mixes, withWorkers(opts, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("AloneIPCs differs between workers=1 and workers=8:\n%v\nvs\n%v", serial, parallel)
	}
	if len(serial) != 3 {
		t.Fatalf("memoisation broken: %d unique profiles, want 3", len(serial))
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

	out, err := Run(context.Background(), Fig12Spec(profiles), WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	first := *out.Fig12
	// Poison one persisted shard: if the second run resumes from the store
	// (instead of recomputing), the poisoned row must surface verbatim.
	poisoned := first.Rows[0]
	poisoned.MPKI = 12345
	if err := opts.shardStore("fig12").Save(profiles[0].Name, poisoned); err != nil {
		t.Fatal(err)
	}
	out, err = Run(context.Background(), Fig12Spec(profiles), WithOptions(opts))
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
	out, err = Run(context.Background(), Fig12Spec(profiles), WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	other := *out.Fig12
	if other.Rows[0].MPKI == 12345 {
		t.Error("checkpoint namespace leaked across seeds")
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
	if _, err := Run(context.Background(), Fig12Spec(tinyProfiles()[:2]), WithOptions(opts)); err != nil {
		t.Fatal(err)
	}
	if last != 2 || total != 2 {
		t.Fatalf("final progress = %d/%d, want 2/2", last, total)
	}
}
