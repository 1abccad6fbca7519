package sim

import (
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/stats"
	"clrdram/internal/workload"
)

// fastOpts returns a small-but-meaningful run configuration for tests.
func fastOpts() Options {
	o := DefaultOptions()
	o.TargetInstructions = 60_000
	o.WarmupRecords = 60_000
	o.ProfileRecords = 5_000
	return o
}

func streamProfile() workload.Profile {
	return workload.Profile{
		Name: "t-stream", Pattern: workload.PatternStream,
		FootprintPages: 8192, BubbleMean: 6, WriteFrac: 0.25,
	}
}

func randomProfile() workload.Profile {
	return workload.Profile{
		Name: "t-random", Pattern: workload.PatternRandom,
		FootprintPages: 8192, BubbleMean: 6, WriteFrac: 0.25,
	}
}

func cachedProfile() workload.Profile {
	return workload.Profile{
		Name: "t-cached", Pattern: workload.PatternRandom,
		FootprintPages: 128, BubbleMean: 6, WriteFrac: 0.25, // 512 KiB: fits LLC
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.Baseline()), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	if res.TimedOut {
		t.Fatal("run timed out")
	}
	if res.PerCore[0].Instructions < 60_000 {
		t.Fatalf("retired %d instructions, want ≥ target", res.PerCore[0].Instructions)
	}
	if ipc := res.PerCore[0].IPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %v outside (0,4]", ipc)
	}
	if res.Energy.Total() <= 0 || res.PowerMW <= 0 {
		t.Fatal("energy/power must be positive")
	}
	if res.Mem.ReadsServed == 0 {
		t.Fatal("no memory reads reached DRAM")
	}
	if res.Mem.Refreshes == 0 {
		t.Fatal("no refreshes issued")
	}
}

func TestDeterminism(t *testing.T) {
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.CLR(0.5)), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	a := out.Single
	out, err = Run(context.Background(), SingleSpec(randomProfile(), core.CLR(0.5)), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b := out.Single
	if a.CPUCycles != b.CPUCycles || a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("runs diverge: %d/%d cycles, %v/%v pJ",
			a.CPUCycles, b.CPUCycles, a.Energy.Total(), b.Energy.Total())
	}
}

func TestCLRFullHPBeatsBaselineOnRandom(t *testing.T) {
	// The paper's headline: memory-intensive random-access workloads gain
	// from high-performance rows (shorter tRCD/tRAS/tRP).
	opts := fastOpts()
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Single
	out, err = Run(context.Background(), SingleSpec(randomProfile(), core.CLR(1.0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	clr := out.Single
	bi, ci := base.PerCore[0].IPC(), clr.PerCore[0].IPC()
	if ci <= bi {
		t.Fatalf("CLR 100%% IPC (%v) should beat baseline (%v) on random access", ci, bi)
	}
}

func TestCLRSpeedupGrowsWithHPFraction(t *testing.T) {
	opts := fastOpts()
	prev := 0.0
	for _, frac := range []float64{0.25, 1.0} {
		out, err := Run(context.Background(), SingleSpec(randomProfile(), core.CLR(frac)), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := out.Single
		ipc := res.PerCore[0].IPC()
		if ipc < prev {
			t.Fatalf("IPC decreased from %.3f to %.3f as HP fraction grew", prev, ipc)
		}
		prev = ipc
	}
}

func TestNonIntensiveWorkloadInsensitive(t *testing.T) {
	// A cache-resident workload barely touches DRAM: CLR gain must be small.
	opts := fastOpts()
	out, err := Run(context.Background(), SingleSpec(cachedProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Single
	out, err = Run(context.Background(), SingleSpec(cachedProfile(), core.CLR(1.0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	clr := out.Single
	bi, ci := base.PerCore[0].IPC(), clr.PerCore[0].IPC()
	// With a 30-cycle LLC hit latency and 8 outstanding loads, the
	// steady-state IPC ceiling is ≈ 8/30·(bubble+1) ≈ 1.9; anything above 1
	// confirms the workload is not DRAM-bound.
	if bi < 1.0 {
		t.Fatalf("cache-resident workload IPC = %v, expected ≥ 1", bi)
	}
	if ci/bi > 1.05 {
		t.Fatalf("cache-resident speedup %.3f, expected ≈1.0", ci/bi)
	}
}

func TestMPKIClassification(t *testing.T) {
	mpki := func(p workload.Profile) float64 {
		out, err := Run(context.Background(), SingleSpec(p, core.Baseline()), fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		return out.Single.PerCore[0].MPKI()
	}
	if hi := mpki(randomProfile()); hi < 2 {
		t.Fatalf("random 32 MiB footprint MPKI = %v, want > 2 (memory-intensive)", hi)
	}
	if lo := mpki(cachedProfile()); lo > 2 {
		t.Fatalf("cache-resident MPKI = %v, want < 2", lo)
	}
}

func TestMultiCoreMixRuns(t *testing.T) {
	opts := fastOpts()
	opts.TargetInstructions = 30_000
	mix := workload.Mix{Name: "t", Profiles: [4]workload.Profile{
		randomProfile(), streamProfile(), cachedProfile(), randomProfile(),
	}}
	out, err := Run(context.Background(), MixSpec(mix, core.CLR(0.25)), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	if res.TimedOut {
		t.Fatal("mix timed out")
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("PerCore = %d entries", len(res.PerCore))
	}
	for i, c := range res.PerCore {
		if c.Instructions < 30_000 {
			t.Fatalf("core %d retired %d", i, c.Instructions)
		}
	}
	var alone []float64
	for _, p := range mix.Profiles {
		out, err := Run(context.Background(), SingleSpec(p, core.Baseline()), opts)
		if err != nil {
			t.Fatal(err)
		}
		alone = append(alone, out.Single.PerCore[0].IPC())
	}
	ws := stats.WeightedSpeedup(res.IPC(), alone)
	if ws <= 0 || ws > 4 {
		t.Fatalf("weighted speedup = %v outside (0,4]", ws)
	}
}

func TestHotPageMappingUsesProfile(t *testing.T) {
	// Build a system at 25% HP for a skewed workload and check its mapper
	// marked pages hot.
	p := workload.Profile{
		Name: "t-skewed", Pattern: workload.PatternRandom,
		FootprintPages: 2048, ZipfTheta: 1.0, BubbleMean: 4,
	}
	s, err := NewSystem([]workload.Profile{p}, core.CLR(0.25), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.mapper.HotPages(); got != 512 {
		t.Fatalf("hot pages = %d, want 25%% of 2048", got)
	}
}

func TestStreamBenefitsFromCLR(t *testing.T) {
	opts := fastOpts()
	out, err := Run(context.Background(), SingleSpec(streamProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Single
	out, err = Run(context.Background(), SingleSpec(streamProfile(), core.CLR(1.0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	clr := out.Single
	if clr.PerCore[0].IPC() < base.PerCore[0].IPC()*0.98 {
		t.Fatalf("stream workload should not slow down under CLR: %v vs %v",
			clr.PerCore[0].IPC(), base.PerCore[0].IPC())
	}
}

func TestRefreshEnergyDropsWithCLR(t *testing.T) {
	opts := fastOpts()
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Single
	out, err = Run(context.Background(), SingleSpec(randomProfile(), core.CLR(1.0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	clr := out.Single
	// Refresh energy per unit time must fall (reduced tRFC); compare rates
	// because runtimes differ.
	baseRate := base.Energy.Refresh / float64(base.DRAMCycles)
	clrRate := clr.Energy.Refresh / float64(clr.DRAMCycles)
	if clrRate >= baseRate {
		t.Fatalf("refresh energy rate did not drop: %v vs %v", clrRate, baseRate)
	}
}
