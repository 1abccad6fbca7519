package sim

import (
	"context"
	"fmt"

	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/stats"
	"clrdram/internal/workload"
)

// runSingle is the single-workload driver behind Run(SingleSpec).
func runSingle(ctx context.Context, p workload.Profile, clr core.Config, opts Options) (Result, error) {
	s, err := NewSystem([]workload.Profile{p}, clr, opts)
	if err != nil {
		return Result{}, runErr("single", p.Name, clr, err)
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return Result{}, runErr("single", p.Name, clr, err)
	}
	return res, nil
}

// runMix is the multiprogrammed-mix driver behind Run(MixSpec).
func runMix(ctx context.Context, m workload.Mix, clr core.Config, opts Options) (Result, error) {
	s, err := NewSystem(m.Profiles[:], clr, opts)
	if err != nil {
		return Result{}, runErr("mix", m.Name, clr, err)
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return Result{}, runErr("mix", m.Name, clr, err)
	}
	return res, nil
}

// aloneIPCs computes the alone-run IPC of every profile in the mixes on the
// baseline configuration (the denominator of weighted speedup). Results are
// memoised by profile name: the unique profiles are computed concurrently
// on the experiment engine (one shard each), and the map is assembled only
// after the fan-out barrier, so no shard ever touches shared state.
func aloneIPCs(ctx context.Context, mixes []workload.Mix, opts Options) (map[string]float64, error) {
	var unique []workload.Profile
	seen := make(map[string]bool)
	for _, m := range mixes {
		for _, p := range m.Profiles {
			if !seen[p.Name] {
				seen[p.Name] = true
				unique = append(unique, p)
			}
		}
	}
	store, err := opts.shardStore("alone")
	if err != nil {
		return nil, err
	}
	ipcs, err := engine.MapCheckpointed(ctx, opts.pool(), store, unique,
		func(_ int, p workload.Profile) string { return p.Name },
		func(ctx context.Context, _ int, p workload.Profile) (float64, error) {
			res, err := runSingle(ctx, p, core.Baseline(), opts)
			if err != nil {
				return 0, err
			}
			ipc := res.PerCore[0].IPC()
			if ipc <= 0 {
				return 0, runErr("alone", p.Name, core.Baseline(),
					fmt.Errorf("alone IPC is %v", ipc))
			}
			return ipc, nil
		})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(unique))
	for i, p := range unique {
		out[p.Name] = ipcs[i]
	}
	return out, nil
}

// WeightedSpeedup computes the weighted speedup of a multi-core result
// against the memoised alone IPCs.
func WeightedSpeedup(res Result, m workload.Mix, alone map[string]float64) float64 {
	shared := res.IPC()
	ref := make([]float64, len(shared))
	for i := range shared {
		ref[i] = alone[m.Profiles[i].Name]
	}
	return stats.WeightedSpeedup(shared, ref)
}

// MeasureMPKI runs a profile briefly on the baseline and returns its LLC
// misses per kilo-instruction — used to validate the MPKI > 2.0 intensity
// classification of the workload table (§8.1).
func MeasureMPKI(p workload.Profile, opts Options) (float64, error) {
	res, err := runSingle(context.Background(), p, core.Baseline(), opts)
	if err != nil {
		return 0, err
	}
	return res.PerCore[0].MPKI(), nil
}
