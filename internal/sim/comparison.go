package sim

import (
	"context"

	"clrdram/internal/core"
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

// runComparison runs one row per profile: the baseline, then every
// alternative design.
func runComparison(ctx context.Context, profiles []workload.Profile, clrFraction float64, opts Options) ([]ComparisonRow, error) {
	alts, err := core.DefaultAlternatives(clrFraction)
	if err != nil {
		return nil, err
	}
	cfgs := []core.Config{core.Baseline()}
	for _, alt := range alts {
		cfgs = append(cfgs, alt.Config())
	}
	rows := make([]row, len(profiles))
	for i, p := range profiles {
		rows[i] = singleRow(p, cfgs...)
	}
	recs, err := runRows(ctx, rows, opts)
	if err != nil {
		return nil, err
	}
	out := make([]ComparisonRow, len(alts))
	for ai, alt := range alts {
		var ipc, energy []float64
		for _, rec := range recs {
			base, res := rec[0], rec[1+ai]
			ipc = append(ipc, res.IPC[0]/base.IPC[0])
			energy = append(energy, res.Energy/base.Energy)
		}
		out[ai] = ComparisonRow{
			Name:           alt.Name,
			Design:         alt.Design,
			NormIPC:        safeGeo(ipc),
			NormEnergy:     safeGeo(energy),
			CapacityFactor: alt.CapacityFactor,
			Dynamic:        alt.Dynamic,
		}
	}
	return out, nil
}
