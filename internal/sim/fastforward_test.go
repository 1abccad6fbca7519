package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// ffDiffOpts is a deliberately small budget: the differential sweep runs
// every profile twice (fast-forward on and off), so per-run cost is what
// bounds the whole suite. Stats collection stays ON — the identity claim
// covers the canonical RunReport, not just the headline Result.
func ffDiffOpts() Options {
	o := DefaultOptions()
	o.TargetInstructions = 12_000
	o.WarmupRecords = 2_000
	o.ProfileRecords = 2_000
	o.CollectStats = true
	o.StatsEpochCycles = 10_000
	return o
}

// assertIdenticalResults fails unless the two results are bit-identical:
// every Result field compares deep-equal and the canonical RunReports
// marshal to the same bytes.
func assertIdenticalResults(t *testing.T, ff, ticked Result) {
	t.Helper()
	ffRep, tickedRep := ff.Report, ticked.Report
	ff.Report, ticked.Report = nil, nil
	if !reflect.DeepEqual(ff, ticked) {
		t.Errorf("fast-forward Result diverges from ticked Result:\n ff:     %+v\n ticked: %+v", ff, ticked)
	}
	if (ffRep == nil) != (tickedRep == nil) {
		t.Fatalf("report presence diverges: ff=%v ticked=%v", ffRep != nil, tickedRep != nil)
	}
	if ffRep == nil {
		return
	}
	a, err := json.Marshal(ffRep.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tickedRep.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("canonical RunReport diverges:\n ff:     %s\n ticked: %s", a, b)
	}
}

// runBothWays runs the same single-core spec with and without fast-forward
// and returns both results.
func runBothWays(t *testing.T, p workload.Profile, clr core.Config, opts Options) (ff, ticked Result) {
	t.Helper()
	on, off := opts, opts
	on.FastForward = FFOn
	off.FastForward = FFOff
	ffOut, err := Run(context.Background(), SingleSpec(p, clr), on)
	if err != nil {
		t.Fatal(err)
	}
	tickedOut, err := Run(context.Background(), SingleSpec(p, clr), off)
	if err != nil {
		t.Fatal(err)
	}
	return *ffOut.Single, *tickedOut.Single
}

// runMixBothWays runs the same four-core mix with and without fast-forward
// and returns both results.
func runMixBothWays(t *testing.T, mix workload.Mix, opts Options) (ff, ticked Result) {
	t.Helper()
	on, off := opts, opts
	on.FastForward = FFOn
	off.FastForward = FFOff
	ffOut, err := Run(context.Background(), MixSpec(mix, core.CLR(0.5)), on)
	if err != nil {
		t.Fatal(err)
	}
	tickedOut, err := Run(context.Background(), MixSpec(mix, core.CLR(0.5)), off)
	if err != nil {
		t.Fatal(err)
	}
	return *ffOut.Single, *tickedOut.Single
}

// TestFastForwardIdentityAllProfiles is the tentpole's acceptance test: over
// the full 71-profile workload set, the event-driven fast-forward path must
// produce a bit-identical Result and canonical RunReport to the one-cycle
// ticked loop. Horizons are lower bounds, so any divergence here is a bug in
// a horizon or bulk-update, never an accepted approximation.
func TestFastForwardIdentityAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("71-profile differential sweep is not a -short test")
	}
	clr := core.CLR(0.5)
	for _, p := range workload.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			ff, ticked := runBothWays(t, p, clr, ffDiffOpts())
			assertIdenticalResults(t, ff, ticked)
		})
	}
}

// TestFastForwardIdentityBaseline covers the plain-DDR4 timing path (no CLR
// relaxation, standard refresh window) on representative access patterns.
func TestFastForwardIdentityBaseline(t *testing.T) {
	for _, p := range []workload.Profile{streamProfile(), randomProfile(), cachedProfile()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			ff, ticked := runBothWays(t, p, core.Baseline(), ffDiffOpts())
			assertIdenticalResults(t, ff, ticked)
		})
	}
}

// TestFastForwardIdentityMix runs a four-core mix both ways: the shared LLC,
// per-core clock coupling and cross-core bank contention all have to survive
// bulk skipping, which makes mixes the strongest single differential case.
func TestFastForwardIdentityMix(t *testing.T) {
	mix := workload.MixGroups(1, 1)[workload.GroupM][0]
	ff, ticked := runMixBothWays(t, mix, ffDiffOpts())
	assertIdenticalResults(t, ff, ticked)
}

// TestFastForwardIdentityBackpressure runs the clrbench mix4 shape
// (mcf+lbm+gamess×2) on a memory system small enough to push back: an
// 8-entry read queue, below the LLC's 64 MSHRs, so the read port fills and
// Load and Store are rejected; a 2-entry write queue, so dirty victims wait
// in the writeback buffer; and a 64 KiB LLC, so the misses come. No
// fast-forward class covers a port-blocked core, which ticks through the
// stall, so fast-forward on and off must agree bit for bit while cores block.
func TestFastForwardIdentityBackpressure(t *testing.T) {
	var mix workload.Mix
	for i, name := range []string{"429.mcf-like", "470.lbm-like", "416.gamess-like", "416.gamess-like"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		mix.Profiles[i] = p
	}
	mix.Name = "backpressure"
	opts := ffDiffOpts()
	opts.TargetInstructions = 30_000
	opts.Mem.ReadQueueCap = 8
	opts.Mem.WriteQueueCap, opts.Mem.WriteHigh, opts.Mem.WriteLow = 2, 2, 1
	opts.LLC.SizeBytes = 64 << 10
	ff, ticked := runMixBothWays(t, mix, opts)
	assertIdenticalResults(t, ff, ticked)
	var blocked uint64
	for _, c := range ticked.PerCore {
		blocked += c.MemBlockedCycles
	}
	if blocked == 0 {
		t.Fatal("no core blocked on the memory port: the configuration exerts no backpressure")
	}
	t.Logf("MemBlockedCycles %d", blocked)
}

// TestFastForwardIdentityFig12CSV checks the exported artifact end to end: a
// Figure 12 sweep must serialise to the same CSV bytes regardless of the
// fast-forward setting or the worker count.
func TestFastForwardIdentityFig12CSV(t *testing.T) {
	profiles := []workload.Profile{streamProfile(), randomProfile()}
	opts := ffDiffOpts()
	opts.CollectStats = false

	var want []byte
	for _, cfg := range []struct {
		ff      FFMode
		workers int
	}{
		{FFOn, 1}, {FFOn, 4}, {FFOff, 1}, {FFOff, 4},
	} {
		o := opts
		o.FastForward = cfg.ff
		o.Workers = cfg.workers
		out, err := Run(context.Background(), Fig12Spec(profiles), o)
		if err != nil {
			t.Fatal(err)
		}
		res := *out.Fig12
		var buf bytes.Buffer
		if err := WriteFig12CSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Errorf("Fig12 CSV diverges at ff=%v workers=%d:\n want: %s\n got:  %s",
				cfg.ff, cfg.workers, want, buf.Bytes())
		}
	}
}
