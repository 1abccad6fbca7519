package sim

import (
	"bytes"
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// The warmfork differential tests enforce the checkpoint-and-fork warmup
// contract stated in warmfork.go: a run forked from a shared WarmupCache is
// byte-identical to the same run warmed up cold, and repeated forks from one
// snapshot do not contaminate each other.

// TestWarmupForkIdentitySingle forks three CLR configurations from one
// shared cache and compares each against its cold twin. Three fractions from
// one snapshot is exactly the sweep-row shape the cache exists for: the
// snapshot must be CLR-independent, and each fork's LLC copy and reader
// clones must replay the cold pre-measurement state bit for bit.
func TestWarmupForkIdentitySingle(t *testing.T) {
	cache := NewWarmupCache()
	for _, p := range []workload.Profile{streamProfile(), randomProfile(), cachedProfile()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, frac := range []float64{0.0, 0.5, 1.0} {
				forked, cold := ffDiffOpts(), ffDiffOpts()
				forked.Warmup = cache
				cold.DisableWarmupFork = true
				out, err := Run(context.Background(), SingleSpec(p, core.CLR(frac)), WithOptions(forked))
				if err != nil {
					t.Fatal(err)
				}
				got := out.Single
				out, err = Run(context.Background(), SingleSpec(p, core.CLR(frac)), WithOptions(cold))
				if err != nil {
					t.Fatal(err)
				}
				want := out.Single
				assertIdenticalResults(t, *got, *want)
			}
		})
	}
}

// TestWarmupForkRepeatable runs the same configuration twice from the same
// cache entry: the second fork must equal the first, proving a fork never
// mutates the master snapshot (LLC deep copy, reader clone discipline).
func TestWarmupForkRepeatable(t *testing.T) {
	opts := ffDiffOpts()
	opts.Warmup = NewWarmupCache()
	p := randomProfile()
	out, err := Run(context.Background(), SingleSpec(p, core.CLR(0.5)), WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	first := out.Single
	out, err = Run(context.Background(), SingleSpec(p, core.CLR(0.5)), WithOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	second := out.Single
	assertIdenticalResults(t, *first, *second)
}

// TestWarmupForkIdentityFig12CSV checks the artifact end to end: a Figure 12
// sweep (which installs a WarmupCache via ensureWarmup by default) must
// serialise to the same CSV bytes as one with fork-warmup disabled, at both
// worker counts. This is the ffdiff-style gate named in warmfork.go.
func TestWarmupForkIdentityFig12CSV(t *testing.T) {
	profiles := []workload.Profile{streamProfile(), cachedProfile()}
	opts := ffDiffOpts()
	opts.CollectStats = false

	var want []byte
	for _, cfg := range []struct {
		fork    bool
		workers int
	}{
		{true, 1}, {true, 4}, {false, 1}, {false, 4},
	} {
		o := opts
		o.DisableWarmupFork = !cfg.fork
		o.Workers = cfg.workers
		out, err := Run(context.Background(), Fig12Spec(profiles), WithOptions(o))
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
			t.Errorf("Fig12 CSV diverges at fork=%v workers=%d:\n want: %s\n got:  %s",
				cfg.fork, cfg.workers, want, buf.Bytes())
		}
	}
}
