package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"clrdram/internal/core"
	"clrdram/internal/engine"
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

func runFig12(ctx context.Context, profiles []workload.Profile, opts Options) (Fig12Result, error) {
	var out Fig12Result
	store, err := opts.shardStore("fig12")
	if err != nil {
		return out, err
	}
	rows, err := engine.MapCheckpointed(ctx, opts.pool(), store, profiles,
		func(_ int, p workload.Profile) string { return p.Name },
		func(ctx context.Context, _ int, p workload.Profile) (SingleRow, error) {
			return fig12Row(ctx, p, opts)
		})
	if err != nil {
		return out, err
	}
	out.Rows = rows
	out.aggregate()
	return out, nil
}

// fig12Row runs one workload's baseline plus the full HP-fraction sweep.
func fig12Row(ctx context.Context, p workload.Profile, opts Options) (SingleRow, error) {
	// One warmup snapshot serves the baseline and every HP fraction of the
	// row (DESIGN.md §13); opts is this row's copy, so the cache dies with it.
	opts.ensureWarmup()
	n := len(HPFractions)
	base, err := runSingle(ctx, p, core.Baseline(), opts)
	if err != nil {
		return SingleRow{}, err
	}
	row := SingleRow{
		Name:         p.Name,
		MemIntensive: p.MemIntensive,
		Synthetic:    p.Synthetic,
		Pattern:      p.Pattern,
		BaselineIPC:  base.PerCore[0].IPC(),
		MPKI:         base.PerCore[0].MPKI(),
		NormIPC:      make([]float64, n),
		NormEnergy:   make([]float64, n),
		NormPower:    make([]float64, n),
		RowHitRate:   make([]float64, n),
		BankUtil:     make([]float64, n),
	}
	for i, frac := range HPFractions {
		res, err := runSingle(ctx, p, configFor(frac, 64), opts)
		if err != nil {
			return SingleRow{}, err
		}
		row.NormIPC[i] = res.PerCore[0].IPC() / row.BaselineIPC
		row.NormEnergy[i] = res.Energy.Total() / base.Energy.Total()
		row.NormPower[i] = res.PowerMW / base.PowerMW
		row.RowHitRate[i] = res.Mem.RowBuffer.HitRate()
		row.BankUtil[i] = res.BankUtil
	}
	return row, nil
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

func runFig13(ctx context.Context, groups map[string][]workload.Mix, opts Options) (Fig13Result, error) {
	out := Fig13Result{
		GroupWS:     map[string][]float64{},
		GroupEnergy: map[string][]float64{},
	}
	var allMixes []workload.Mix
	groupNames := make([]string, 0, len(groups))
	for g := range groups {
		groupNames = append(groupNames, g)
	}
	sort.Strings(groupNames)
	for _, g := range groupNames {
		allMixes = append(allMixes, groups[g]...)
	}
	alone, err := aloneIPCs(ctx, allMixes, opts)
	if err != nil {
		return out, err
	}
	n := len(HPFractions)
	// One shard per mix, fanned out on the engine; `alone` is read-only
	// from here on, so sharing it across shards is safe.
	type mixTask struct {
		Group string
		Mix   workload.Mix
	}
	var tasks []mixTask
	for _, g := range groupNames {
		for _, m := range groups[g] {
			tasks = append(tasks, mixTask{Group: g, Mix: m})
		}
	}
	store, err := opts.shardStore("fig13")
	if err != nil {
		return out, err
	}
	rows, err := engine.MapCheckpointed(ctx, opts.pool(), store, tasks,
		func(_ int, t mixTask) string { return t.Group + "-" + t.Mix.Name },
		func(ctx context.Context, _ int, t mixTask) (MixRow, error) {
			m := t.Mix
			// Shadow the captured opts: shards run concurrently, and the
			// warmup snapshot is per-mix (baseline + every HP fraction of
			// this mix share it; other mixes have different profile sets).
			opts := opts
			opts.ensureWarmup()
			base, err := runMix(ctx, m, core.Baseline(), opts)
			if err != nil {
				return MixRow{}, err
			}
			baseWS := WeightedSpeedup(base, m, alone)
			row := MixRow{
				Name: m.Name, Group: t.Group,
				NormWS:     make([]float64, n),
				NormEnergy: make([]float64, n),
				NormPower:  make([]float64, n),
				RowHitRate: make([]float64, n),
				BankUtil:   make([]float64, n),
			}
			for i, frac := range HPFractions {
				res, err := runMix(ctx, m, configFor(frac, 64), opts)
				if err != nil {
					return MixRow{}, err
				}
				row.NormWS[i] = WeightedSpeedup(res, m, alone) / baseWS
				row.NormEnergy[i] = res.Energy.Total() / base.Energy.Total()
				row.NormPower[i] = res.PowerMW / base.PowerMW
				row.RowHitRate[i] = res.Mem.RowBuffer.HitRate()
				row.BankUtil[i] = res.BankUtil
			}
			return row, nil
		})
	if err != nil {
		return out, err
	}
	out.Rows = rows
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

func runFig15(ctx context.Context, profiles []workload.Profile, fractions []float64, opts Options) ([]Fig15Row, error) {
	// Driver-scoped warmup cache (installed before the fan-out, so no shard
	// races on the field): every baseline shard and every (tREFW, fraction)
	// cell runs the same single-profile workload sets, so one snapshot per
	// profile covers the whole figure.
	opts.ensureWarmup()
	pool := opts.pool()
	// Unlike the per-workload and per-mix drivers, a Figure 15 shard
	// aggregates over the whole profile set, so the checkpoint namespace
	// must pin the set's identity.
	store, err := opts.shardStore("fig15-" + profileSetID(profiles))
	if err != nil {
		return nil, err
	}

	// Baselines per profile, fanned out (one shard each).
	type baseRes struct {
		IPC     float64
		Energy  float64
		Refresh float64
	}
	bases, err := engine.MapCheckpointed(ctx, pool, store, profiles,
		func(_ int, p workload.Profile) string { return "base-" + p.Name },
		func(ctx context.Context, _ int, p workload.Profile) (baseRes, error) {
			b, err := runSingle(ctx, p, core.Baseline(), opts)
			if err != nil {
				return baseRes{}, err
			}
			return baseRes{b.PerCore[0].IPC(), b.Energy.Total(), b.Energy.Refresh}, nil
		})
	if err != nil {
		return nil, err
	}

	// One shard per (tREFW, fraction) cell; each cell sweeps the profiles
	// serially and reduces to the figure's normalized aggregates.
	type cellKey struct {
		ri, fi int
	}
	type cell struct {
		Perf, Energy, Refresh float64
	}
	var keys []cellKey
	for ri := range REFWSettings {
		for fi := range fractions {
			keys = append(keys, cellKey{ri, fi})
		}
	}
	cells, err := engine.MapCheckpointed(ctx, pool, store, keys,
		func(_ int, k cellKey) string {
			return fmt.Sprintf("refw%v-frac%v", REFWSettings[k.ri], fractions[k.fi])
		},
		func(ctx context.Context, _ int, k cellKey) (cell, error) {
			refw, frac := REFWSettings[k.ri], fractions[k.fi]
			var perf, energy []float64
			var refSum, refBaseSum float64
			for i, p := range profiles {
				res, err := runSingle(ctx, p, configFor(frac, refw), opts)
				if err != nil {
					return cell{}, err
				}
				perf = append(perf, res.PerCore[0].IPC()/bases[i].IPC)
				energy = append(energy, res.Energy.Total()/bases[i].Energy)
				refSum += res.Energy.Refresh
				refBaseSum += bases[i].Refresh
			}
			c := cell{Perf: safeGeo(perf), Energy: safeGeo(energy)}
			if refBaseSum > 0 {
				c.Refresh = refSum / refBaseSum
			}
			return c, nil
		})
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
	}
	for ki, k := range keys {
		out[k.ri].NormPerf[k.fi] = cells[ki].Perf
		out[k.ri].NormEnergy[k.fi] = cells[ki].Energy
		out[k.ri].NormRefresh[k.fi] = cells[ki].Refresh
	}
	return out, nil
}

// profileSetID fingerprints an ordered profile set for checkpoint
// namespacing.
func profileSetID(profiles []workload.Profile) string {
	h := fnv.New64a()
	for _, p := range profiles {
		h.Write([]byte(p.Name))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum64())
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
