package sim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/mem"
	"clrdram/internal/workload"
)

// Composition tests (DESIGN.md §14): the name-driven construction path
// must leave the paper's default composition bit-identical, keep every
// scheduler × row-policy pair bit-identical between the fast-forward and
// ticked loops on a four-core mix, and surface bad names as typed errors at
// NewSystem time.

// TestDefaultCompositionUnchanged is the golden gate: a zero configuration
// (empty names) must produce byte-for-byte the same Result and
// canonical RunReport as the same run with every default spelled out
// explicitly. This pins the empty-string resolution — the seed's behavior —
// against drift in the name lookups.
func TestDefaultCompositionUnchanged(t *testing.T) {
	p := randomProfile()
	explicit := ffDiffOpts()
	explicit.Standard = dram.DefaultStandard
	explicit.Mem.Scheduler = mem.DefaultScheduler
	explicit.Mem.RowPolicy = mem.DefaultRowPolicy

	out, err := Run(context.Background(), SingleSpec(p, core.CLR(0.5)), ffDiffOpts())
	if err != nil {
		t.Fatal(err)
	}
	zero := out.Single
	out, err = Run(context.Background(), SingleSpec(p, core.CLR(0.5)), explicit)
	if err != nil {
		t.Fatal(err)
	}
	named := out.Single
	assertIdenticalResults(t, *zero, *named)
}

// TestDefaultCompositionFig12CSVIdentity is the `make compdiff` gate: the
// Figure 12 CSV artifact must serialise to the same bytes whether the
// memory-system composition is left zero or named explicitly, at any worker
// count.
func TestDefaultCompositionFig12CSVIdentity(t *testing.T) {
	profiles := []workload.Profile{streamProfile(), randomProfile()}
	base := ffDiffOpts()
	base.CollectStats = false

	var want []byte
	for _, cfg := range []struct {
		explicit bool
		workers  int
	}{
		{false, 1}, {false, 4}, {true, 1}, {true, 4},
	} {
		o := base
		o.Workers = cfg.workers
		if cfg.explicit {
			o.Standard = dram.DefaultStandard
			o.Mem.Scheduler = mem.DefaultScheduler
			o.Mem.RowPolicy = mem.DefaultRowPolicy
		}
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
			t.Errorf("Fig12 CSV diverges at explicit=%v workers=%d:\n want: %s\n got:  %s",
				cfg.explicit, cfg.workers, want, buf.Bytes())
		}
	}
}

// TestCompositionIdentityMatrix runs the four-core mix under every
// scheduler × row-policy pair, two ways each: fast-forward vs the ticked
// loop must be bit-identical (Result and canonical RunReport), and the
// mix sweep fanned out across 4 workers must serialise to the same Fig. 13
// CSV bytes as the serial run — for every composition, not just the paper's
// default. The per-interface horizon hooks may only ever underestimate, and
// per-task seed derivation keeps worker count out of the results.
func TestCompositionIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduler × row-policy differential matrix is not a -short test")
	}
	mix := workload.MixGroups(1, 1)[workload.GroupM][0]
	for _, sched := range mem.SchedulerNames() {
		for _, policy := range mem.RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				opts := ffDiffOpts()
				opts.Mem.Scheduler = sched
				opts.Mem.RowPolicy = policy
				opts.Mem.MaxRowHits = 6
				on, off := opts, opts
				on.FastForward = FFOn
				off.FastForward = FFOff
				ff, err := Run(context.Background(), MixSpec(mix, core.CLR(0.5)), on)
				if err != nil {
					t.Fatal(err)
				}
				ticked, err := Run(context.Background(), MixSpec(mix, core.CLR(0.5)), off)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, *ff.Single, *ticked.Single)

				// parallel == serial on the same mix, via the sweep engine.
				sweep := opts
				sweep.CollectStats = false
				groups := map[string][]workload.Mix{workload.GroupM: {mix}}
				var want []byte
				for _, workers := range []int{1, 4} {
					o := sweep
					o.Workers = workers
					out, err := Run(context.Background(), Fig13Spec(groups), o)
					if err != nil {
						t.Fatal(err)
					}
					res := *out.Fig13
					var buf bytes.Buffer
					if err := WriteFig13CSV(&buf, res); err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = buf.Bytes()
					} else if !bytes.Equal(want, buf.Bytes()) {
						t.Errorf("Fig13 CSV diverges between workers=1 and workers=%d:\n want: %s\n got:  %s",
							workers, want, buf.Bytes())
					}
				}
			})
		}
	}
}

// TestStandardLPDDR4 covers the second standard end to end, selected by
// Options.Standard alone on top of the default options: a baseline run on
// lpddr4-3200 must work, differ from the ddr4-2400 device (different clock,
// geometry and timing), and stay bit-identical between the fast-forward and
// ticked loops.
func TestStandardLPDDR4(t *testing.T) {
	p := randomProfile()
	lp := ffDiffOpts()
	lp.Standard = "lpddr4-3200"
	ff, ticked := runBothWays(t, p, core.Baseline(), lp)
	assertIdenticalResults(t, ff, ticked)

	out, err := Run(context.Background(), SingleSpec(p, core.Baseline()), ffDiffOpts())
	if err != nil {
		t.Fatal(err)
	}
	ddr4 := out.Single
	if ff.DRAMCycles == ddr4.DRAMCycles {
		t.Error("lpddr4-3200 run is indistinguishable from ddr4-2400 — the standard was not applied")
	}
}

// TestCompositionErrorsAtNewSystem checks the construction-time rejection
// paths: unknown names and CLR configurations on fixed-timing
// standards must fail before any simulation work happens.
func TestCompositionErrorsAtNewSystem(t *testing.T) {
	p := randomProfile()
	newSys := func(mutate func(*Options)) error {
		opts := ffDiffOpts()
		mutate(&opts)
		_, err := NewSystem([]workload.Profile{p}, core.Baseline(), opts)
		return err
	}
	if err := newSys(func(o *Options) { o.Standard = "sdram-66" }); !errors.Is(err, dram.ErrUnknownStandard) {
		t.Errorf("unknown standard error = %v, want ErrUnknownStandard", err)
	}
	if err := newSys(func(o *Options) { o.Mem.Scheduler = "bliss" }); !errors.Is(err, mem.ErrUnknownScheduler) {
		t.Errorf("unknown scheduler error = %v, want ErrUnknownScheduler", err)
	}
	if err := newSys(func(o *Options) { o.Mem.RowPolicy = "adaptive" }); !errors.Is(err, mem.ErrUnknownRowPolicy) {
		t.Errorf("unknown row policy error = %v, want ErrUnknownRowPolicy", err)
	}

	opts := ffDiffOpts()
	opts.Standard = "lpddr4-3200"
	_, err := NewSystem([]workload.Profile{p}, core.CLR(0.5), opts)
	if err == nil || !strings.Contains(err.Error(), "cannot model CLR-DRAM") || !strings.Contains(err.Error(), opts.Standard) {
		t.Errorf("CLR on a fixed-timing standard = %v, want a CLR-capability rejection naming %q", err, opts.Standard)
	}
}
