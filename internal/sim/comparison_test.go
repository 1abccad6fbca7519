package sim

import (
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

func TestRunComparisonShape(t *testing.T) {
	opts := tinyOpts()
	profiles := []workload.Profile{
		{Name: "c-random", Pattern: workload.PatternRandom, FootprintPages: 8192,
			BubbleMean: 4, WriteFrac: 0.25, MemIntensive: true},
	}
	out, err := Run(context.Background(), ComparisonSpec(profiles, 1.0), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Comparison
	if len(rows) != 4 {
		t.Fatalf("got %d designs, want 4", len(rows))
	}
	byDesign := map[core.Design]ComparisonRow{}
	for _, r := range rows {
		byDesign[r.Design] = r
		if r.NormIPC <= 0 {
			t.Fatalf("%s: non-positive normalized IPC", r.Name)
		}
	}

	clr := byDesign[core.DesignCLRDRAM]
	twin := byDesign[core.DesignTwinCell]
	mcr := byDesign[core.DesignMCR]
	tl := byDesign[core.DesignTLDRAM]

	// The §9 ordering at equal (100%) fast fractions: CLR-DRAM beats
	// twin-cell and MCR because only it couples SAs and precharge units.
	if clr.NormIPC <= twin.NormIPC {
		t.Errorf("CLR (%.3f) should beat twin-cell (%.3f): coupled SAs matter", clr.NormIPC, twin.NormIPC)
	}
	if clr.NormIPC <= mcr.NormIPC {
		t.Errorf("CLR (%.3f) should beat MCR (%.3f)", clr.NormIPC, mcr.NormIPC)
	}
	// Both static half-capacity designs still beat the DDR4 baseline.
	if twin.NormIPC <= 1.0 || mcr.NormIPC < 0.99 {
		t.Errorf("static designs should not lose to baseline: twin %.3f, mcr %.3f", twin.NormIPC, mcr.NormIPC)
	}
	// TL-DRAM's tiny fixed near segment caps its benefit on a uniform
	// random workload: CLR at 100% must beat it despite TL's faster rows.
	if clr.NormIPC <= tl.NormIPC {
		t.Errorf("CLR 100%% (%.3f) should beat TL-DRAM's 1/16 near segment (%.3f) on uniform access",
			clr.NormIPC, tl.NormIPC)
	}
	// Capacity story: TL keeps full capacity, twin/MCR always pay half,
	// CLR pays only per configured fraction.
	if tl.CapacityFactor != 1 || twin.CapacityFactor != 0.5 || mcr.CapacityFactor != 0.5 {
		t.Error("capacity factors wrong")
	}
	if !clr.Dynamic || twin.Dynamic {
		t.Error("dynamism flags wrong")
	}
}

func TestAlternativeConfigsValid(t *testing.T) {
	alts, err := core.DefaultAlternatives(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) != 4 {
		t.Fatalf("want 4 alternatives, got %d", len(alts))
	}
	for _, a := range alts {
		cfg := a.Config()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", a.Name, err)
		}
		// The fast timing must not be slower than the slow timing on tRCD.
		if a.FastTiming.RCD > a.SlowTiming.RCD+1e-9 {
			t.Errorf("%s: fast tRCD %v > slow %v", a.Name, a.FastTiming.RCD, a.SlowTiming.RCD)
		}
	}
	if _, err := core.DefaultAlternatives(1.5); err == nil {
		t.Error("out-of-range CLR fraction accepted")
	}
}
