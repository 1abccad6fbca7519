package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/stats"
	"clrdram/internal/workload"
)

// mustProfile fetches a named workload profile or fails the test.
func mustProfile(t testing.TB, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not found", name)
	}
	return p
}

// hetMixes builds per-core lag's target workloads: heterogeneous mixes
// where some cores stream memory (unskippable for long stretches) while
// others burn bubble runs (skippable almost always). No jump can start while
// a core streams; lagging the others is what makes these mixes fast.
func hetMixes(t testing.TB) []workload.Mix {
	t.Helper()
	mcf := mustProfile(t, "429.mcf-like")
	gam := mustProfile(t, "416.gamess-like")
	rnd := randomProfile()
	return []workload.Mix{
		{Name: "het-1mcf-3gamess", Profiles: [4]workload.Profile{mcf, gam, gam, gam}},
		{Name: "het-2mcf-2gamess", Profiles: [4]workload.Profile{mcf, mcf, gam, gam}},
		{Name: "het-4random", Profiles: [4]workload.Profile{rnd, rnd, rnd, rnd}},
	}
}

// TestFastForwardIdentityHeterogeneousMixes is per-core lag's differential
// gate: on mixes engineered to keep the classification mixed, the
// fast-forward loop must produce a bit-identical Result and canonical
// RunReport to the ticked loop.
func TestFastForwardIdentityHeterogeneousMixes(t *testing.T) {
	for _, m := range hetMixes(t) {
		m := m
		t.Run(m.Name+"/on", func(t *testing.T) {
			t.Parallel()
			on, off := ffDiffOpts(), ffDiffOpts()
			on.FastForward = FFOn
			off.FastForward = FFOff
			ff, err := Run(context.Background(), MixSpec(m, core.CLR(0.5)), on)
			if err != nil {
				t.Fatal(err)
			}
			ticked, err := Run(context.Background(), MixSpec(m, core.CLR(0.5)), off)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, *ff.Single, *ticked.Single)
		})
	}
}

// lagLeg is one system the lag tests run.
type lagLeg struct {
	name     string
	profiles []workload.Profile
}

// lagLegs are the systems the lag tests run: the flagship 1×mcf+3×gamess
// mix, whose gamess cores lag while mcf ticks, and mcf alone, whose one core
// lags through its memory stalls while the controller ticks.
func lagLegs(t testing.TB) []lagLeg {
	m := hetMixes(t)[0]
	return []lagLeg{
		{"1mcf+3gamess", m.Profiles[:]},
		{"429.mcf-like", []workload.Profile{mustProfile(t, "429.mcf-like")}},
	}
}

// TestDecoupledEngages pins down that per-core lag actually engages on each
// lag leg: with fast-forward on, the run must flush lags and absorb
// core-cycles of real cycles in lag counters, and all lag state must be
// drained by the end of the run.
func TestDecoupledEngages(t *testing.T) {
	for _, leg := range lagLegs(t) {
		t.Run(leg.name, func(t *testing.T) {
			opts := ffDiffOpts()
			opts.FastForward = FFOn
			s, err := NewSystem(leg.profiles, core.CLR(0.5), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			flushes, lagged := s.FFLagStats()
			if flushes == 0 || lagged == 0 {
				t.Fatalf("no core lagged on %s: flushes=%d laggedCycles=%d", leg.name, flushes, lagged)
			}
			for i := range s.cores {
				if s.ffLagged[i] || s.ffLag[i] != 0 {
					t.Fatalf("core %d still carries lag state after the run", i)
				}
			}
		})
	}
}

// flushPoint records one lag flush: which core, where its local clock landed,
// and its full counter snapshot at that instant (before any completion
// callback runs).
type flushPoint struct {
	core  int
	cycle int64
	stats stats.CoreStats
}

// TestDecoupledFlushInvariant is the lag-flush twin invariant: at every
// flush boundary, the lagged core's counters must equal those of its twin in
// a purely ticked run at the same cycle. Each flush lands the core's local
// clock exactly where the ticked twin's loop-top state has it, and CoreStats
// is untouched by completion delivery, so the comparison point in the twin
// is simply "top of the step loop at the recorded cycle". A lag that spans
// jumps is checked the same way, so the single-core leg checks its jumps
// too.
func TestDecoupledFlushInvariant(t *testing.T) {
	for _, leg := range lagLegs(t) {
		t.Run(leg.name, func(t *testing.T) {
			opts := ffDiffOpts()
			opts.FastForward = FFOn

			a, err := NewSystem(leg.profiles, core.CLR(0.5), opts)
			if err != nil {
				t.Fatal(err)
			}
			var log []flushPoint
			a.ffOnFlush = func(core int, _ int64) {
				c := a.cores[core]
				log = append(log, flushPoint{core: core, cycle: c.Cycle(), stats: c.Stats()})
			}
			if _, err := a.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(log) == 0 {
				t.Fatal("no lag flushes recorded: the invariant test has no coverage")
			}

			off := opts
			off.FastForward = FFOff
			b, err := NewSystem(leg.profiles, core.CLR(0.5), off)
			if err != nil {
				t.Fatal(err)
			}
			idx := 0
			for idx < len(log) {
				for idx < len(log) && log[idx].cycle == b.cpuCycle {
					fp := log[idx]
					if got := b.cores[fp.core].Stats(); got != fp.stats {
						t.Fatalf("flush %d: core %d counters diverge from ticked twin at cycle %d:\n flushed: %+v\n ticked:  %+v",
							idx, fp.core, fp.cycle, fp.stats, got)
					}
					idx++
				}
				if idx == len(log) {
					break
				}
				if log[idx].cycle < b.cpuCycle {
					t.Fatalf("flush log not cycle-monotone: point %d at cycle %d behind twin cycle %d", idx, log[idx].cycle, b.cpuCycle)
				}
				if b.cpuCycle >= b.opts.MaxCPUCycles {
					t.Fatal("ticked twin hit the cycle bound before covering all flush points")
				}
				b.step()
			}
		})
	}
}

// TestDecoupledCountersDisjoint pins the fast-forward counters' accounting
// on the standing benchmark's three simulator configurations (mcf, gamess
// and mix4 under CLR(0.5), at the benchmark test's reduced sizes): jumped
// cycles count in FFStats and lagged real cycles in FFLagStats, never both,
// so cores × skipped cycles + lagged core-cycles never exceeds the run's
// core-cycles. The benchmark's layer ledger derives the core ticks it
// charges from exactly that difference.
func TestDecoupledCountersDisjoint(t *testing.T) {
	for _, w := range []struct {
		name     string
		profiles []string
		target   uint64
	}{
		{"mcf", []string{"429.mcf-like"}, 10_000},
		{"gamess", []string{"416.gamess-like"}, 300_000},
		{"mix4", []string{"429.mcf-like", "470.lbm-like", "416.gamess-like", "416.gamess-like"}, 5_000},
	} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				profiles := make([]workload.Profile, len(w.profiles))
				for i, name := range w.profiles {
					profiles[i] = mustProfile(t, name)
				}
				opts := DefaultOptions()
				opts.Seed = seed
				opts.TargetInstructions = w.target
				opts.WarmupRecords = 5_000
				s, err := NewSystem(profiles, core.CLR(0.5), opts)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				_, skipped := s.FFStats()
				_, lagged := s.FFLagStats()
				cores := int64(len(profiles))
				if skipped == 0 {
					t.Fatal("no cycle jumped: the check has no coverage")
				}
				if cores*skipped+lagged > cores*res.CPUCycles {
					t.Fatalf("%d cores × %d skipped cycles + %d lagged core-cycles exceed %d cores × %d cycles",
						cores, skipped, lagged, cores, res.CPUCycles)
				}
			})
		}
	}
}

// TestFastForwardIdentityRunFor covers the retirement-ceiling path: RunFor's
// per-core ceilings must bound lag intervals exactly (a lagged core may never
// cross its ceiling), so phase-structured executions stay bit-identical too.
// Two consecutive legs also verify that lag state never leaks across RunFor
// boundaries.
func TestFastForwardIdentityRunFor(t *testing.T) {
	m := hetMixes(t)[0]
	opts := ffDiffOpts()
	opts.FastForward = FFOn
	a, err := NewSystem(m.Profiles[:], core.CLR(0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	off := opts
	off.FastForward = FFOff
	b, err := NewSystem(m.Profiles[:], core.CLR(0.5), off)
	if err != nil {
		t.Fatal(err)
	}
	for leg := 0; leg < 2; leg++ {
		ra, rb := a.RunFor(4_000), b.RunFor(4_000)
		assertIdenticalResults(t, ra, rb)
		for i, c := range a.cores {
			if bc := b.cores[i]; c.Retired() != bc.Retired() || c.Cycle() != bc.Cycle() {
				t.Fatalf("leg %d core %d diverges: retired %d/%d cycle %d/%d",
					leg, i, c.Retired(), bc.Retired(), c.Cycle(), bc.Cycle())
			}
		}
	}
}

// TestFastForwardIdentityHetMixWorkers widens the differential matrix the
// way make ffdiff consumes it: the heterogeneous-mix sweep must serialise to
// the same bytes with fast-forward on and off, at 1 and 4 workers.
func TestFastForwardIdentityHetMixWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("heterogeneous sweep matrix is not a -short test")
	}
	groups := map[string][]workload.Mix{"HET": hetMixes(t)}
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
		out, err := Run(context.Background(), Fig13Spec(groups), o)
		if err != nil {
			t.Fatal(err)
		}
		res := *out.Fig13
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("Fig13 sweep diverges at ff=%v workers=%d:\n want: %s\n got:  %s",
				cfg.ff, cfg.workers, want, got)
		}
	}
}
