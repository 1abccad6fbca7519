package sim

import (
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// reconfigurableSystem builds a CLR system sized for fast dynamic tests.
func reconfigurableSystem(t *testing.T, frac float64) *System {
	t.Helper()
	opts := fastOpts()
	opts.TargetInstructions = 1 << 62 // phase-driven via RunFor
	p := workload.Profile{
		Name: "t-dyn", Pattern: workload.PatternRandom,
		FootprintPages: 1024, BubbleMean: 6, WriteFrac: 0.25,
	}
	s, err := NewSystem([]workload.Profile{p}, core.CLR(frac), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReconfigureGrowsHPRegion(t *testing.T) {
	s := reconfigurableSystem(t, 0.25)
	s.RunFor(20_000)
	beforeRows := s.threshold.HPRows()

	res, err := s.Reconfigure(core.CLR(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if s.threshold.HPRows() <= beforeRows {
		t.Fatal("HP boundary did not grow")
	}
	// Thanks to the hot-up/cold-down layout, only the newly hot pages move:
	// 75% of the 4096-page footprint.
	wantMoved := 1024 * 3 / 4
	if res.MigratedPages != wantMoved {
		t.Fatalf("migrated %d pages, want %d (only the newly-hot set)", res.MigratedPages, wantMoved)
	}
	if res.MigratedLines != wantMoved*64 {
		t.Fatalf("migrated %d lines, want %d", res.MigratedLines, wantMoved*64)
	}
	if res.MigrationCycles <= 0 {
		t.Fatal("migration must consume cycles")
	}
	// Execution continues and is faster than before the switch.
	after := s.RunFor(20_000)
	if after.TimedOut {
		t.Fatal("post-reconfiguration phase timed out")
	}
}

func TestReconfigureSpeedsUpSubsequentPhase(t *testing.T) {
	// Measure phase IPC before and after growing the HP region; the
	// workload is uniform-random so the speedup must be visible.
	s := reconfigurableSystem(t, 0)
	s.RunFor(10_000) // warm the pipeline

	c0 := s.cores[0].Retired()
	cy0 := s.cpuCycle
	s.RunFor(40_000)
	ipcBefore := float64(s.cores[0].Retired()-c0) / float64(s.cpuCycle-cy0)

	if _, err := s.Reconfigure(core.CLR(1.0)); err != nil {
		t.Fatal(err)
	}

	c1 := s.cores[0].Retired()
	cy1 := s.cpuCycle
	s.RunFor(40_000)
	ipcAfter := float64(s.cores[0].Retired()-c1) / float64(s.cpuCycle-cy1)

	if ipcAfter <= ipcBefore*1.02 {
		t.Fatalf("reconfiguration to 100%% HP should speed the next phase: %.4f → %.4f", ipcBefore, ipcAfter)
	}
}

func TestReconfigureShrinkMovesHotSetBack(t *testing.T) {
	s := reconfigurableSystem(t, 1.0)
	s.RunFor(5_000)
	res, err := s.Reconfigure(core.CLR(0.25))
	if err != nil {
		t.Fatal(err)
	}
	// The pages that leave the HP region (75% of footprint) move back to
	// max-capacity frames.
	if res.MigratedPages != 1024*3/4 {
		t.Fatalf("migrated %d pages, want %d", res.MigratedPages, 1024*3/4)
	}
	// Usable capacity grows back per §6.1.
	if core.CapacityFactor(0.25) <= core.CapacityFactor(1.0) {
		t.Fatal("capacity accounting inverted")
	}
}

func TestReconfigureRejectsInvalidTransitions(t *testing.T) {
	s := reconfigurableSystem(t, 0.5)
	// Changing the refresh window at run time is not allowed (timing sets
	// are fixed at build).
	bad := core.CLR(0.75)
	bad.REFWms = 114
	if _, err := s.Reconfigure(bad); err == nil {
		t.Fatal("REFW change should be rejected")
	}
	// Baseline systems cannot reconfigure.
	opts := fastOpts()
	base, err := NewSystem([]workload.Profile{randomProfile()}, core.Baseline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Reconfigure(core.CLR(0.5)); err == nil {
		t.Fatal("baseline reconfiguration should be rejected")
	}
}

func TestReconfigureNoopIsFree(t *testing.T) {
	s := reconfigurableSystem(t, 0.5)
	s.RunFor(5_000)
	res, err := s.Reconfigure(core.CLR(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedPages != 0 || res.MigratedLines != 0 {
		t.Fatalf("no-op reconfiguration migrated %d pages", res.MigratedPages)
	}
}

func TestReconfigureRefreshScheduleFollows(t *testing.T) {
	// After switching to 100% HP the refresh stream set must be the single
	// high-performance stream; verify by observing that refreshes continue.
	s := reconfigurableSystem(t, 0.25)
	s.RunFor(20_000)
	if _, err := s.Reconfigure(core.CLR(1.0)); err != nil {
		t.Fatal(err)
	}
	before := s.snapshotResult(false).Mem.Refreshes
	s.RunFor(100_000)
	after := s.snapshotResult(false).Mem.Refreshes
	if after <= before {
		t.Fatal("refreshes stopped after reconfiguration")
	}
}

// TestFastForwardIdentityAcrossReconfigure runs a heterogeneous four-core
// mix (one memory-bound core on a 64 KiB LLC, three mostly skippable
// gamess-like cores) through RunFor, a stop-the-world Reconfigure and a
// second RunFor, fast-forward on against off. The migration pauses the cores
// while the system clock runs on, so afterwards every core's own clock is
// behind it; bulk advances must still replay the epoch IPC series at
// system-clock boundaries. A core can lag on the first cycle after the
// migration, so its first flush also replays the boundaries the pause
// crossed, as the one lump the ticked loop records.
func TestFastForwardIdentityAcrossReconfigure(t *testing.T) {
	gam := mustProfile(t, "416.gamess-like")
	rnd := randomProfile()
	rnd.FootprintPages = 256
	profiles := []workload.Profile{rnd, gam, gam, gam}
	run := func(mode FFMode) (Result, *System) {
		opts := ffDiffOpts()
		opts.TargetInstructions = 1 << 62 // phase-driven via RunFor
		opts.StatsEpochCycles = 2_000
		opts.LLC.SizeBytes = 64 << 10
		opts.FastForward = mode
		s, err := NewSystem(profiles, core.CLR(0.25), opts)
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(5_000)
		if _, err := s.Reconfigure(core.CLR(1.0)); err != nil {
			t.Fatal(err)
		}
		return s.RunFor(10_000), s
	}
	ff, s := run(FFOn)
	ticked, _ := run(FFOff)
	assertIdenticalResults(t, ff, ticked)
	flushes, _ := s.FFLagStats()
	if s.paused == 0 || flushes == 0 {
		t.Fatalf("weak run: %d cycles paused, %d lag flushes", s.paused, flushes)
	}
	t.Logf("%d cycles paused, %d lag flushes", s.paused, flushes)
}
