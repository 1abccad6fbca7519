package sim

import (
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// TestFlowConservation cross-checks the counters of the full stack against
// each other: every LLC line fetch corresponds to one DRAM read served,
// every writeback to one DRAM write, and row-buffer classifications cover
// exactly the issued commands.
func TestFlowConservation(t *testing.T) {
	opts := fastOpts()
	for _, cfg := range []core.Config{core.Baseline(), core.CLR(0.5)} {
		s, err := NewSystem([]workload.Profile{randomProfile()}, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		llc := res.LLC
		mem := res.Mem

		// Warmup misses fill instantly and never reach the controller, so
		// DRAM reads served = LLC misses after warmup. The LLC stats count
		// both phases; the controller only the timed phase. Therefore:
		// ReadsServed ≤ Misses, and the gap is exactly the warmup misses.
		if mem.ReadsServed > llc.Misses {
			t.Fatalf("%v: DRAM reads (%d) exceed LLC misses (%d)", cfg, mem.ReadsServed, llc.Misses)
		}
		// Writes served = writebacks that reached DRAM; cannot exceed LLC
		// writeback count.
		if mem.WritesServed > llc.Writebacks {
			t.Fatalf("%v: DRAM writes (%d) exceed LLC writebacks (%d)", cfg, mem.WritesServed, llc.Writebacks)
		}
		// Row-buffer classification covers every serviced request exactly
		// once: requests classified = reads + writes served (in-flight
		// leftovers allowed at simulation end).
		classified := mem.RowBuffer.Total()
		served := mem.ReadsServed + mem.WritesServed
		if classified > served+64+64 {
			t.Fatalf("%v: classified %d >> served %d", cfg, classified, served)
		}
		if classified < served {
			t.Fatalf("%v: classified %d < served %d (requests must be classified at first command)", cfg, classified, served)
		}
		// Energy components are all non-negative and total is consistent.
		e := res.Energy
		for name, v := range map[string]float64{
			"ActPre": e.ActPre, "ReadWrite": e.ReadWrite, "IO": e.IO,
			"Refresh": e.Refresh, "Background": e.Background,
		} {
			if v < 0 {
				t.Fatalf("%v: negative energy component %s = %v", cfg, name, v)
			}
		}
	}
}

// TestMaxCyclesTimeout verifies the defensive bound reports rather than
// hangs.
func TestMaxCyclesTimeout(t *testing.T) {
	opts := fastOpts()
	opts.MaxCPUCycles = 1000 // far too small to retire the target
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	if !res.TimedOut {
		t.Fatal("run should have reported a timeout")
	}
	if res.CPUCycles > 1001 {
		t.Fatalf("run continued past the bound: %d cycles", res.CPUCycles)
	}
}

// TestRefreshPostponementAtSystemLevel runs the same workload with and
// without DDR4 refresh postponement: postponement must not break anything
// and should not hurt performance.
func TestRefreshPostponementAtSystemLevel(t *testing.T) {
	opts := fastOpts()
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.CLR(1.0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Single
	opts2 := opts
	opts2.Mem.MaxPostponedRefresh = 2 // small budget so the short run must catch up
	out, err = Run(context.Background(), SingleSpec(randomProfile(), core.CLR(1.0)), opts2)
	if err != nil {
		t.Fatal(err)
	}
	post := out.Single
	if post.TimedOut {
		t.Fatal("postponement run timed out")
	}
	if post.PerCore[0].IPC() < base.PerCore[0].IPC()*0.98 {
		t.Fatalf("postponement should not hurt IPC: %.3f vs %.3f",
			post.PerCore[0].IPC(), base.PerCore[0].IPC())
	}
	// Refreshes still happen once the budget is exhausted (catch-up).
	if post.Mem.Refreshes == 0 {
		t.Fatal("postponement eliminated refreshes entirely")
	}
	if post.Mem.Refreshes > base.Mem.Refreshes {
		t.Fatalf("postponement cannot add refreshes: %d vs %d", post.Mem.Refreshes, base.Mem.Refreshes)
	}
}
