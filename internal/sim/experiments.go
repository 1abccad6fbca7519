package sim

import (
	"context"
	"fmt"
	"sort"

	"clrdram/internal/core"
	"clrdram/internal/stats"
	"clrdram/internal/workload"
)

// HPFractions are the paper's page-mapping sweep points (Figures 12-14).
var HPFractions = []float64{0, 0.25, 0.50, 0.75, 1.00}

// REFWSettings are the paper's refresh-interval sweep points (Figure 15).
var REFWSettings = []float64{64, 114, 124, 184, 194}

// configFor builds the CLR configuration for an HP fraction. Note the
// paper's "0%" configuration is CLR-DRAM hardware with every row operating
// in max-capacity mode — distinct from the unmodified DDR4 baseline that all
// results are normalized against (§8.2 observation 5 depends on this).
func configFor(frac, refwMs float64) core.Config {
	c := core.CLR(frac)
	c.REFWms = refwMs
	return c
}

// SingleRow is one workload's sweep across HP fractions: everything is
// normalized against the DDR4 baseline (Figure 12's y-axes).
type SingleRow struct {
	Name         string
	MemIntensive bool
	Synthetic    bool
	Pattern      workload.Pattern
	BaselineIPC  float64
	// Indexed like HPFractions.
	NormIPC    []float64
	NormEnergy []float64
	NormPower  []float64
	// Measured (not normalized) memory-system behaviour per HP fraction:
	// row-buffer hit rate and mean per-bank data-burst occupancy (see
	// Result.BankUtil). These explain the normalized series above — a
	// rising HP fraction speeds up the misses, it does not change the hit
	// pattern much.
	RowHitRate []float64
	BankUtil   []float64
	MPKI       float64
}

// Fig12Result aggregates the single-core sweep.
type Fig12Result struct {
	Rows []SingleRow
	// Geometric means indexed like HPFractions.
	GMeanIPC, GMeanEnergy, GMeanPower    []float64
	RandomIPC, RandomEnergy, RandomPower []float64
	StreamIPC, StreamEnergy, StreamPower []float64
	IntensiveIPC                         []float64
}

// sweepConfigs is a Figure 12/13 row's configurations: the DDR4 baseline,
// then CLR-DRAM at each HPFractions point.
func sweepConfigs() []core.Config {
	cfgs := []core.Config{core.Baseline()}
	for _, frac := range HPFractions {
		cfgs = append(cfgs, configFor(frac, 64))
	}
	return cfgs
}

func runFig12(ctx context.Context, profiles []workload.Profile, opts Options) (Fig12Result, error) {
	var out Fig12Result
	cfgs := sweepConfigs()
	rows := make([]row, len(profiles))
	for i, p := range profiles {
		rows[i] = singleRow(p, cfgs...)
	}
	recs, err := runRows(ctx, rows, opts)
	if err != nil {
		return out, err
	}
	for i, p := range profiles {
		base := recs[i][0]
		r := SingleRow{Name: p.Name, MemIntensive: p.MemIntensive, Synthetic: p.Synthetic,
			Pattern: p.Pattern, BaselineIPC: base.IPC[0], MPKI: base.MPKI}
		for _, res := range recs[i][1:] {
			r.NormIPC = append(r.NormIPC, res.IPC[0]/r.BaselineIPC)
			r.NormEnergy = append(r.NormEnergy, res.Energy/base.Energy)
			r.NormPower = append(r.NormPower, res.PowerMW/base.PowerMW)
			r.RowHitRate = append(r.RowHitRate, res.RowHitRate)
			r.BankUtil = append(r.BankUtil, res.BankUtil)
		}
		out.Rows = append(out.Rows, r)
	}
	out.aggregate()
	return out, nil
}

// aggregate fills the geometric-mean series.
func (f *Fig12Result) aggregate() {
	n := len(HPFractions)
	f.GMeanIPC = make([]float64, n)
	f.GMeanEnergy = make([]float64, n)
	f.GMeanPower = make([]float64, n)
	f.RandomIPC = make([]float64, n)
	f.RandomEnergy = make([]float64, n)
	f.RandomPower = make([]float64, n)
	f.StreamIPC = make([]float64, n)
	f.StreamEnergy = make([]float64, n)
	f.StreamPower = make([]float64, n)
	f.IntensiveIPC = make([]float64, n)
	for i := 0; i < n; i++ {
		var all, rnd, str, intens [3][]float64
		for _, r := range f.Rows {
			vals := [3]float64{r.NormIPC[i], r.NormEnergy[i], r.NormPower[i]}
			for k := 0; k < 3; k++ {
				if !r.Synthetic {
					all[k] = append(all[k], vals[k])
				}
				if r.Synthetic && r.Pattern == workload.PatternRandom {
					rnd[k] = append(rnd[k], vals[k])
				}
				if r.Synthetic && r.Pattern == workload.PatternStream {
					str[k] = append(str[k], vals[k])
				}
			}
			if r.MemIntensive && !r.Synthetic {
				intens[0] = append(intens[0], r.NormIPC[i])
			}
		}
		f.GMeanIPC[i] = safeGeo(all[0])
		f.GMeanEnergy[i] = safeGeo(all[1])
		f.GMeanPower[i] = safeGeo(all[2])
		f.RandomIPC[i] = safeGeo(rnd[0])
		f.RandomEnergy[i] = safeGeo(rnd[1])
		f.RandomPower[i] = safeGeo(rnd[2])
		f.StreamIPC[i] = safeGeo(str[0])
		f.StreamEnergy[i] = safeGeo(str[1])
		f.StreamPower[i] = safeGeo(str[2])
		f.IntensiveIPC[i] = safeGeo(intens[0])
	}
}

func safeGeo(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.GeoMean(xs)
}

// MixRow is one multiprogrammed mix's sweep.
type MixRow struct {
	Name  string
	Group string
	// Indexed like HPFractions.
	NormWS     []float64
	NormEnergy []float64
	NormPower  []float64
	// Measured row-buffer hit rate and mean per-bank data-burst occupancy
	// per HP fraction (see SingleRow).
	RowHitRate []float64
	BankUtil   []float64
}

// Fig13Result aggregates the multi-core sweep (Figures 13 and 14b).
type Fig13Result struct {
	Rows []MixRow
	// Per-group and overall geometric means, indexed like HPFractions.
	GroupWS     map[string][]float64
	GroupEnergy map[string][]float64
	GMeanWS     []float64
	GMeanEnergy []float64
	GMeanPower  []float64
}

// runFig13 runs one row per mix and one baseline row per profile of each
// mix (runRows runs each distinct profile once): the alone-run IPCs that
// weighted speedup divides by.
func runFig13(ctx context.Context, groups map[string][]workload.Mix, opts Options) (Fig13Result, error) {
	out := Fig13Result{
		GroupWS:     map[string][]float64{},
		GroupEnergy: map[string][]float64{},
	}
	groupNames := make([]string, 0, len(groups))
	for g := range groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	var mixes []workload.Mix
	var mixGroups []string
	for _, g := range groupNames {
		for _, m := range groups[g] {
			mixes, mixGroups = append(mixes, m), append(mixGroups, g)
		}
	}
	cfgs := sweepConfigs()
	var rows []row
	for _, m := range mixes {
		rows = append(rows, mixRow(m, cfgs...))
	}
	for _, m := range mixes {
		for _, p := range m.Profiles {
			rows = append(rows, singleRow(p, core.Baseline()))
		}
	}
	recs, err := runRows(ctx, rows, opts)
	if err != nil {
		return out, err
	}
	for mi, m := range mixes {
		alone := make([]float64, len(m.Profiles))
		for c, p := range m.Profiles {
			alone[c] = recs[len(mixes)+mi*len(m.Profiles)+c][0].IPC[0]
			if alone[c] <= 0 {
				return out, runErr("alone", p.Name, core.Baseline(), fmt.Errorf("alone IPC is %v", alone[c]))
			}
		}
		base := recs[mi][0]
		baseWS := stats.WeightedSpeedup(base.IPC, alone)
		r := MixRow{Name: m.Name, Group: mixGroups[mi]}
		for _, res := range recs[mi][1:] {
			r.NormWS = append(r.NormWS, stats.WeightedSpeedup(res.IPC, alone)/baseWS)
			r.NormEnergy = append(r.NormEnergy, res.Energy/base.Energy)
			r.NormPower = append(r.NormPower, res.PowerMW/base.PowerMW)
			r.RowHitRate = append(r.RowHitRate, res.RowHitRate)
			r.BankUtil = append(r.BankUtil, res.BankUtil)
		}
		out.Rows = append(out.Rows, r)
	}
	n := len(HPFractions)
	// Aggregate.
	out.GMeanWS = make([]float64, n)
	out.GMeanEnergy = make([]float64, n)
	out.GMeanPower = make([]float64, n)
	for i := 0; i < n; i++ {
		var ws, en, pw []float64
		byGroupWS := map[string][]float64{}
		byGroupEn := map[string][]float64{}
		for _, r := range out.Rows {
			ws = append(ws, r.NormWS[i])
			en = append(en, r.NormEnergy[i])
			pw = append(pw, r.NormPower[i])
			byGroupWS[r.Group] = append(byGroupWS[r.Group], r.NormWS[i])
			byGroupEn[r.Group] = append(byGroupEn[r.Group], r.NormEnergy[i])
		}
		out.GMeanWS[i] = safeGeo(ws)
		out.GMeanEnergy[i] = safeGeo(en)
		out.GMeanPower[i] = safeGeo(pw)
		for g, v := range byGroupWS {
			if out.GroupWS[g] == nil {
				out.GroupWS[g] = make([]float64, n)
				out.GroupEnergy[g] = make([]float64, n)
			}
			out.GroupWS[g][i] = safeGeo(v)
			out.GroupEnergy[g][i] = safeGeo(byGroupEn[g])
		}
	}
	return out, nil
}

// Fig15Row is one refresh-window setting's aggregate (Figure 15): IPC (or
// weighted speedup), total DRAM energy and refresh energy, all normalized to
// the DDR4 baseline, per HP fraction.
type Fig15Row struct {
	REFWms      float64
	NormPerf    []float64 // indexed like the fractions of the Fig15Spec
	NormEnergy  []float64
	NormRefresh []float64
}

// runFig15 runs one row per profile: the baseline, then every (tREFW,
// fraction) cell, REFWSettings-major.
func runFig15(ctx context.Context, profiles []workload.Profile, fractions []float64, opts Options) ([]Fig15Row, error) {
	cfgs := []core.Config{core.Baseline()}
	for _, refw := range REFWSettings {
		for _, frac := range fractions {
			cfgs = append(cfgs, configFor(frac, refw))
		}
	}
	rows := make([]row, len(profiles))
	for i, p := range profiles {
		rows[i] = singleRow(p, cfgs...)
	}
	recs, err := runRows(ctx, rows, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Fig15Row, len(REFWSettings))
	for ri, refw := range REFWSettings {
		out[ri] = Fig15Row{
			REFWms:      refw,
			NormPerf:    make([]float64, len(fractions)),
			NormEnergy:  make([]float64, len(fractions)),
			NormRefresh: make([]float64, len(fractions)),
		}
		for fi := range fractions {
			var perf, energy []float64
			var refSum, refBaseSum float64
			for _, rec := range recs {
				base, res := rec[0], rec[1+ri*len(fractions)+fi]
				perf = append(perf, res.IPC[0]/base.IPC[0])
				energy = append(energy, res.Energy/base.Energy)
				refSum += res.Refresh
				refBaseSum += base.Refresh
			}
			out[ri].NormPerf[fi] = safeGeo(perf)
			out[ri].NormEnergy[fi] = safeGeo(energy)
			if refBaseSum > 0 {
				out[ri].NormRefresh[fi] = refSum / refBaseSum
			}
		}
	}
	return out, nil
}

// Table1 returns the timing-parameter table (paper Table 1) from the given
// timing source, with reduction percentages.
func Table1(tab *core.TimingTable) string {
	b, m, he, hn := tab.Baseline, tab.MaxCap, tab.HighPerfET, tab.HighPerfNoET
	s := fmt.Sprintf("Timing    Baseline  Max-Cap  HP(w/o E.T.)  HP(w/ E.T.)  Reduction\n")
	line := func(name string, bv, mv, hnv, hev float64) string {
		return fmt.Sprintf("%-8s  %7.1f  %7.1f  %12.1f  %11.1f  %8.1f%%\n",
			name, bv, mv, hnv, hev, (1-hev/bv)*100)
	}
	s += line("tRCD(ns)", b.RCD, m.RCD, hn.RCD, he.RCD)
	s += line("tRAS(ns)", b.RAS, m.RAS, hn.RAS, he.RAS)
	s += line("tRP(ns)", b.RP, m.RP, hn.RP, he.RP)
	s += line("tWR(ns)", b.WR, m.WR, hn.WR, he.WR)
	return s
}
