package clrdram

import (
	"context"
	"math"
	"testing"
)

func TestFacadeConfigs(t *testing.T) {
	if Baseline().Enabled {
		t.Fatal("Baseline must be the unmodified device")
	}
	c := CLR(0.5)
	if !c.Enabled || c.HPFraction != 0.5 || c.REFWms != 64 || !c.EarlyTermination {
		t.Fatalf("CLR(0.5) = %+v", c)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(Workloads()) != 71 || len(RealWorkloads()) != 41 || len(SyntheticWorkloads()) != 30 {
		t.Fatal("workload inventory wrong")
	}
	if _, ok := WorkloadByName("429.mcf-like"); !ok {
		t.Fatal("mcf-like missing")
	}
	groups := MixGroups(1, 2)
	if len(groups) != 3 {
		t.Fatal("mix groups wrong")
	}
}

func TestFacadeTimingTable(t *testing.T) {
	tab := DefaultTable()
	if tab.Baseline.RCD != 13.8 {
		t.Fatal("default table is not the paper's Table 1")
	}
}

func TestFacadeAreaAndCapacity(t *testing.T) {
	_, _, total := DefaultAreaModel().Overhead()
	if math.Abs(total-0.032) > 0.002 {
		t.Fatalf("area overhead %v, want ≈3.2%%", total)
	}
	if CapacityFactor(1.0) != 0.5 {
		t.Fatal("full-HP capacity factor should be 0.5")
	}
}

func TestFacadeRowModeMap(t *testing.T) {
	m := NewRowModeMap(16, 1024, ModeMaxCap)
	m.SetHighPerf(3, 100, true)
	if m.HPCount() != 1 {
		t.Fatal("RowModeMap wiring broken")
	}
	hp := NewRowModeMap(2, 4, ModeHighPerf)
	if hp.HPCount() != 8 {
		t.Fatalf("HPCount = %d after ModeHighPerf init, want 8", hp.HPCount())
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	opts := DefaultOptions()
	opts.TargetInstructions = 20_000
	opts.WarmupRecords = 5_000
	opts.ProfileRecords = 2_000
	p, _ := WorkloadByName("random_00")
	run := func(cfg Config) Result {
		out, err := Run(context.Background(), SingleSpec(p, cfg), opts)
		if err != nil {
			t.Fatal(err)
		}
		return *out.Single
	}
	base := run(Baseline())
	clr := run(CLR(1.0))
	if clr.PerCore[0].IPC() <= base.PerCore[0].IPC() {
		t.Fatalf("CLR (%.3f IPC) should beat baseline (%.3f IPC) on random_00",
			clr.PerCore[0].IPC(), base.PerCore[0].IPC())
	}
}

func TestFacadeRegistries(t *testing.T) {
	if len(SchedulerNames()) < 3 || len(RowPolicyNames()) < 4 || len(StandardNames()) < 2 {
		t.Fatalf("name catalogues too small: sched=%v policy=%v std=%v",
			SchedulerNames(), RowPolicyNames(), StandardNames())
	}
	s, err := NewScheduler(DefaultScheduler, MemConfig{})
	if err != nil || s.Name() != DefaultScheduler {
		t.Fatalf("NewScheduler(%q) = %v, %v", DefaultScheduler, s, err)
	}
	dev, err := StandardConfig(DefaultStandard)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CLR(0.5).Build(dev); err != nil {
		t.Fatalf("default standard must be CLR-capable: %v", err)
	}
	if _, err := NewScheduler("no-such-scheduler", MemConfig{}); err == nil {
		t.Fatal("unknown scheduler name must fail")
	}
}

func TestFacadeCircuitTable(t *testing.T) {
	tab, err := BuildTimingTable(DefaultCircuitParams(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Source != "circuit-simulation" {
		t.Fatal("wrong source")
	}
	if tab.HighPerfET.RCD >= tab.Baseline.RCD {
		t.Fatal("circuit table lost the high-performance advantage")
	}
}
