package sim

import (
	"context"
	"fmt"

	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/workload"
)

// ComparisonRow is one design's aggregate result over a workload set,
// normalized to the unmodified DDR4 baseline — the quantitative version of
// the paper's §9 related-work discussion.
type ComparisonRow struct {
	Name           string
	Design         core.Design
	NormIPC        float64 // geometric mean over workloads
	NormEnergy     float64
	CapacityFactor float64
	Dynamic        bool
}

func runComparison(ctx context.Context, profiles []workload.Profile, clrFraction float64, opts Options) ([]ComparisonRow, error) {
	alts, err := core.DefaultAlternatives(clrFraction)
	if err != nil {
		return nil, err
	}
	// Driver-scoped warmup cache (installed before the fan-out): the
	// baseline and every alternative design rerun the same workloads, so one
	// snapshot per profile covers all designs.
	opts.ensureWarmup()
	pool := opts.pool()
	store, err := opts.shardStore(fmt.Sprintf("compare-frac%v", clrFraction))
	if err != nil {
		return nil, err
	}

	// Baselines per profile, fanned out.
	type baseRes struct {
		IPC, Energy float64
	}
	bases, err := engine.MapCheckpointed(ctx, pool, store, profiles,
		func(_ int, p workload.Profile) string { return "base-" + p.Name },
		func(ctx context.Context, _ int, p workload.Profile) (baseRes, error) {
			res, err := runSingle(ctx, p, core.Baseline(), opts)
			if err != nil {
				return baseRes{}, err
			}
			return baseRes{res.PerCore[0].IPC(), res.Energy.Total()}, nil
		})
	if err != nil {
		return nil, err
	}

	// One shard per (design, profile) pair for even load balance, reduced
	// per design afterwards (geometric means are order-stable: the inputs
	// are assembled in profile order regardless of completion order).
	type pairKey struct {
		ai, pi int
	}
	type ratios struct {
		IPC, Energy float64
	}
	var keys []pairKey
	for ai := range alts {
		for pi := range profiles {
			keys = append(keys, pairKey{ai, pi})
		}
	}
	pairs, err := engine.MapCheckpointed(ctx, pool, store, keys,
		func(_ int, k pairKey) string { return alts[k.ai].Name + "-" + profiles[k.pi].Name },
		func(ctx context.Context, _ int, k pairKey) (ratios, error) {
			res, err := runSingle(ctx, profiles[k.pi], alts[k.ai].Config(), opts)
			if err != nil {
				return ratios{}, err
			}
			return ratios{
				IPC:    res.PerCore[0].IPC() / bases[k.pi].IPC,
				Energy: res.Energy.Total() / bases[k.pi].Energy,
			}, nil
		})
	if err != nil {
		return nil, err
	}

	out := make([]ComparisonRow, len(alts))
	ipc := make([][]float64, len(alts))
	energy := make([][]float64, len(alts))
	for ki, k := range keys {
		ipc[k.ai] = append(ipc[k.ai], pairs[ki].IPC)
		energy[k.ai] = append(energy[k.ai], pairs[ki].Energy)
	}
	for ai, alt := range alts {
		out[ai] = ComparisonRow{
			Name:           alt.Name,
			Design:         alt.Design,
			NormIPC:        safeGeo(ipc[ai]),
			NormEnergy:     safeGeo(energy[ai]),
			CapacityFactor: alt.CapacityFactor,
			Dynamic:        alt.Dynamic,
		}
	}
	return out, nil
}
