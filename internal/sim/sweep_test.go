package sim

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/stats"
	"clrdram/internal/workload"
)

// The per-run reference tests check each figure against a reference
// assembled from independent Run(SingleSpec/MixSpec…) calls, which warm up
// cold and share no code with the sweep runner (runRows) or the figure
// reductions, at two worker counts. TestWarmupForkIdentityFig12CSV is the
// Figure 12 member of the set.

// refOpts keeps the reference tests fast.
func refOpts() Options {
	o := ffDiffOpts()
	o.CollectStats = false
	return o
}

// runOne runs a SingleSpec or MixSpec, failing the test on error.
func runOne(t *testing.T, spec Spec, opts Options) Result {
	t.Helper()
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return *out.Single
}

// fig13Reference assembles Figure 13 from per-run results: each mix under
// the baseline and every HP fraction, each of its profiles alone on the
// baseline, weighted speedup by stats.WeightedSpeedup and the means by
// stats.GeoMean.
func fig13Reference(t *testing.T, groups map[string][]workload.Mix, opts Options) Fig13Result {
	t.Helper()
	ref := Fig13Result{GroupWS: map[string][]float64{}, GroupEnergy: map[string][]float64{}}
	var names []string
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		for _, m := range groups[g] {
			var alone []float64
			for _, p := range m.Profiles {
				alone = append(alone, runOne(t, SingleSpec(p, core.Baseline()), opts).PerCore[0].IPC())
			}
			base := runOne(t, MixSpec(m, core.Baseline()), opts)
			r := MixRow{Name: m.Name, Group: g}
			for _, frac := range HPFractions {
				res := runOne(t, MixSpec(m, core.CLR(frac)), opts)
				r.NormWS = append(r.NormWS, stats.WeightedSpeedup(res.IPC(), alone)/stats.WeightedSpeedup(base.IPC(), alone))
				r.NormEnergy = append(r.NormEnergy, res.Energy.Total()/base.Energy.Total())
				r.NormPower = append(r.NormPower, res.PowerMW/base.PowerMW)
				r.RowHitRate = append(r.RowHitRate, res.Mem.RowBuffer.HitRate())
				r.BankUtil = append(r.BankUtil, res.BankUtil)
			}
			ref.Rows = append(ref.Rows, r)
		}
	}
	gmean := func(group string, i int) (ws, energy, power float64) {
		var w, e, p []float64
		for _, r := range ref.Rows {
			if group == "" || r.Group == group {
				w, e, p = append(w, r.NormWS[i]), append(e, r.NormEnergy[i]), append(p, r.NormPower[i])
			}
		}
		return stats.GeoMean(w), stats.GeoMean(e), stats.GeoMean(p)
	}
	for i := range HPFractions {
		ws, energy, power := gmean("", i)
		ref.GMeanWS = append(ref.GMeanWS, ws)
		ref.GMeanEnergy = append(ref.GMeanEnergy, energy)
		ref.GMeanPower = append(ref.GMeanPower, power)
		for _, g := range names {
			ws, energy, _ := gmean(g, i)
			ref.GroupWS[g] = append(ref.GroupWS[g], ws)
			ref.GroupEnergy[g] = append(ref.GroupEnergy[g], energy)
		}
	}
	return ref
}

// TestFig13AloneIPCPerProfile runs one sweep whose two mixes use different
// profiles under the same name: each mix's weighted speedup must divide by
// its own profiles' alone-run IPCs, not by those of a same-name profile.
// Equal profiles still share one alone run: the sweep has one shard per mix
// and one per distinct profile.
func TestFig13AloneIPCPerProfile(t *testing.T) {
	opts := refOpts()
	ps := tinyProfiles()
	p := ps[0]
	q := p
	q.FootprintPages /= 4
	q.BubbleMean += 7
	groups := map[string][]workload.Mix{"H": {
		{Name: "H00", Profiles: [4]workload.Profile{p, ps[1], p, ps[1]}},
		{Name: "H01", Profiles: [4]workload.Profile{q, ps[1], q, ps[1]}},
	}}
	var shards int
	o := withWorkers(opts, 2)
	o.Progress = func(_, total int) { shards = total }
	out, err := Run(context.Background(), Fig13Spec(groups), o)
	if err != nil {
		t.Fatal(err)
	}
	if shards != 2+3 {
		t.Errorf("sweep ran %d shards, want 2 mixes + 3 distinct profiles", shards)
	}
	want := fig13Reference(t, groups, opts)
	for mi, r := range out.Fig13.Rows {
		for i, ws := range r.NormWS {
			if w := want.Rows[mi].NormWS[i]; ws != w {
				t.Errorf("%s at %v%% HP: normalized WS %v, want %v from its own profiles' alone runs",
					r.Name, HPFractions[i]*100, ws, w)
			}
		}
	}
}

// TestFig13MatchesPerRunReference compares the Figure 13 CSV of the sweep
// against the per-run reference at workers 1 and 4.
func TestFig13MatchesPerRunReference(t *testing.T) {
	opts := refOpts()
	ps := tinyProfiles()
	light := workload.Profile{Name: "x-light", Pattern: workload.PatternRandom,
		FootprintPages: 128, BubbleMean: 12, WriteFrac: 0.2}
	groups := map[string][]workload.Mix{
		"H": {{Name: "H00", Profiles: [4]workload.Profile{ps[0], ps[1], ps[2], ps[0]}}},
		"L": {{Name: "L00", Profiles: [4]workload.Profile{light, ps[2], light, light}}},
	}
	var want bytes.Buffer
	if err := WriteFig13CSV(&want, fig13Reference(t, groups, opts)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		out, err := Run(context.Background(), Fig13Spec(groups), withWorkers(opts, workers))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteFig13CSV(&got, *out.Fig13); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("Fig13 CSV diverges from the per-run reference at workers=%d:\n want: %s\n got:  %s",
				workers, want.Bytes(), got.Bytes())
		}
	}
}

// TestFig15MatchesPerRunReference compares the Figure 15 CSV of the sweep
// against the per-run reference at workers 1 and 4: per tREFW setting and
// fraction, geometric means of the per-profile ratios, and refresh energy
// as the ratio of sums.
func TestFig15MatchesPerRunReference(t *testing.T) {
	opts := refOpts()
	profiles := []workload.Profile{streamProfile(), randomProfile()}
	fractions := []float64{0.5, 1.0}
	var bases []Result
	for _, p := range profiles {
		bases = append(bases, runOne(t, SingleSpec(p, core.Baseline()), opts))
	}
	var ref []Fig15Row
	for _, refw := range REFWSettings {
		r := Fig15Row{REFWms: refw}
		for _, frac := range fractions {
			clr := core.CLR(frac)
			clr.REFWms = refw
			var perf, energy []float64
			var refresh, baseRefresh float64
			for i, p := range profiles {
				res := runOne(t, SingleSpec(p, clr), opts)
				perf = append(perf, res.PerCore[0].IPC()/bases[i].PerCore[0].IPC())
				energy = append(energy, res.Energy.Total()/bases[i].Energy.Total())
				refresh += res.Energy.Refresh
				baseRefresh += bases[i].Energy.Refresh
			}
			if baseRefresh == 0 {
				t.Fatal("baseline runs spent no refresh energy; lengthen them")
			}
			r.NormPerf = append(r.NormPerf, stats.GeoMean(perf))
			r.NormEnergy = append(r.NormEnergy, stats.GeoMean(energy))
			r.NormRefresh = append(r.NormRefresh, refresh/baseRefresh)
		}
		ref = append(ref, r)
	}
	var want bytes.Buffer
	if err := WriteFig15CSV(&want, ref, fractions); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		out, err := Run(context.Background(), Fig15Spec(profiles, fractions), withWorkers(opts, workers))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteFig15CSV(&got, out.Fig15, fractions); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("Fig15 CSV diverges from the per-run reference at workers=%d:\n want: %s\n got:  %s",
				workers, want.Bytes(), got.Bytes())
		}
	}
}

// TestComparisonMatchesPerRunReference compares the §9 comparison rows of
// the sweep against the per-run reference at workers 1 and 4.
func TestComparisonMatchesPerRunReference(t *testing.T) {
	opts := refOpts()
	profiles := []workload.Profile{streamProfile(), randomProfile()}
	alts, err := core.DefaultAlternatives(1.0)
	if err != nil {
		t.Fatal(err)
	}
	var bases []Result
	for _, p := range profiles {
		bases = append(bases, runOne(t, SingleSpec(p, core.Baseline()), opts))
	}
	var want []ComparisonRow
	for _, alt := range alts {
		var ipc, energy []float64
		for i, p := range profiles {
			res := runOne(t, SingleSpec(p, alt.Config()), opts)
			ipc = append(ipc, res.PerCore[0].IPC()/bases[i].PerCore[0].IPC())
			energy = append(energy, res.Energy.Total()/bases[i].Energy.Total())
		}
		want = append(want, ComparisonRow{Name: alt.Name, Design: alt.Design,
			NormIPC: stats.GeoMean(ipc), NormEnergy: stats.GeoMean(energy),
			CapacityFactor: alt.CapacityFactor, Dynamic: alt.Dynamic})
	}
	for _, workers := range []int{1, 4} {
		out, err := Run(context.Background(), ComparisonSpec(profiles, 1.0), withWorkers(opts, workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Comparison, want) {
			t.Errorf("comparison diverges from the per-run reference at workers=%d:\n want: %+v\n got:  %+v",
				workers, want, out.Comparison)
		}
	}
}
