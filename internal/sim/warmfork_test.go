package sim

import (
	"bytes"
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// The warmfork differential tests enforce the checkpoint-and-fork warmup
// contract stated in warmfork.go: a run forked from a row's warm master state
// is byte-identical to the same run warmed up cold, and repeated forks from
// one master do not contaminate each other.

// TestWarmupForkIdentitySingle forks three CLR configurations from one
// master state per profile and compares each against its cold twin. Three
// fractions from one master is exactly the sweep-row shape the fork exists
// for: the master must be CLR-independent, and each fork's LLC copy and
// reader clones must replay the cold pre-measurement state bit for bit.
func TestWarmupForkIdentitySingle(t *testing.T) {
	for _, p := range []workload.Profile{streamProfile(), randomProfile(), cachedProfile()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			opts := ffDiffOpts()
			r := singleRow(p)
			master, err := prewarm(r.Profiles, opts.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.0, 0.5, 1.0} {
				forked, err := runSystem(context.Background(), r, core.CLR(frac), opts, master.fork())
				if err != nil {
					t.Fatal(err)
				}
				out, err := Run(context.Background(), SingleSpec(p, core.CLR(frac)), opts)
				if err != nil {
					t.Fatal(err)
				}
				assertIdenticalResults(t, forked, *out.Single)
			}
		})
	}
}

// TestWarmupForkRepeatable runs the same configuration twice from forks of
// one master: the second fork must equal the first, proving a fork never
// mutates the master state (LLC deep copy, reader clone discipline).
func TestWarmupForkRepeatable(t *testing.T) {
	opts := ffDiffOpts()
	r := singleRow(randomProfile())
	master, err := prewarm(r.Profiles, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	first, err := runSystem(context.Background(), r, core.CLR(0.5), opts, master.fork())
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSystem(context.Background(), r, core.CLR(0.5), opts, master.fork())
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, first, second)
}

// TestWarmupForkIdentityFig12CSV checks the artifact end to end: a Figure 12
// sweep, whose rows always fork their warm-up (row.run), must serialise to
// the same CSV bytes at both worker counts as a reference assembled from
// per-cell single runs. Single runs never fork, so the reference warms every
// cell cold and shares no code with the sweep runner.
func TestWarmupForkIdentityFig12CSV(t *testing.T) {
	profiles := []workload.Profile{streamProfile(), cachedProfile()}
	opts := ffDiffOpts()
	opts.CollectStats = false
	single := func(p workload.Profile, clr core.Config) Result {
		out, err := Run(context.Background(), SingleSpec(p, clr), opts)
		if err != nil {
			t.Fatal(err)
		}
		return *out.Single
	}

	var cold Fig12Result
	for _, p := range profiles {
		base := single(p, core.Baseline())
		row := SingleRow{Name: p.Name, MemIntensive: p.MemIntensive, Synthetic: p.Synthetic,
			Pattern: p.Pattern, BaselineIPC: base.PerCore[0].IPC(), MPKI: base.PerCore[0].MPKI()}
		for _, frac := range HPFractions {
			res := single(p, core.CLR(frac))
			row.NormIPC = append(row.NormIPC, res.PerCore[0].IPC()/row.BaselineIPC)
			row.NormEnergy = append(row.NormEnergy, res.Energy.Total()/base.Energy.Total())
			row.NormPower = append(row.NormPower, res.PowerMW/base.PowerMW)
			row.RowHitRate = append(row.RowHitRate, res.Mem.RowBuffer.HitRate())
			row.BankUtil = append(row.BankUtil, res.BankUtil)
		}
		cold.Rows = append(cold.Rows, row)
	}
	cold.aggregate()
	var want bytes.Buffer
	if err := WriteFig12CSV(&want, cold); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		out, err := Run(context.Background(), Fig12Spec(profiles), o)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteFig12CSV(&got, *out.Fig12); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("forked Fig12 CSV diverges from the cold per-cell reference at workers=%d:\n want: %s\n got:  %s",
				workers, want.Bytes(), got.Bytes())
		}
	}
}
