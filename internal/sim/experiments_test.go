package sim

import (
	"context"
	"strings"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// tinyOpts keeps experiment-shaped tests fast.
func tinyOpts() Options {
	o := DefaultOptions()
	o.TargetInstructions = 25_000
	o.WarmupRecords = 10_000
	o.ProfileRecords = 4_000
	return o
}

func tinyProfiles() []workload.Profile {
	return []workload.Profile{
		{Name: "x-random", Pattern: workload.PatternRandom, FootprintPages: 8192,
			BubbleMean: 4, WriteFrac: 0.25, Synthetic: true, MemIntensive: true},
		{Name: "x-stream", Pattern: workload.PatternStream, FootprintPages: 8192,
			BubbleMean: 4, WriteFrac: 0.25, Synthetic: true, MemIntensive: true},
		{Name: "x-app", Pattern: workload.PatternRandom, FootprintPages: 4096,
			ZipfTheta: 0.9, BubbleMean: 10, WriteFrac: 0.25, MemIntensive: true},
	}
}

func TestRunFig12Shape(t *testing.T) {
	out, err := Run(context.Background(), Fig12Spec(tinyProfiles()), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	res := *out.Fig12
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r.NormIPC) != len(HPFractions) {
			t.Fatalf("%s: series length %d", r.Name, len(r.NormIPC))
		}
		// Paper: "No workload experiences slowdown with CLR-DRAM."
		for i, v := range r.NormIPC {
			if v < 0.97 {
				t.Errorf("%s slows down at %v%% HP: %.3f", r.Name, HPFractions[i]*100, v)
			}
		}
		// 100% HP must beat 0% HP for memory-intensive workloads.
		if r.MemIntensive && r.NormIPC[4] <= r.NormIPC[0] {
			t.Errorf("%s: 100%% HP (%.3f) should beat 0%% (%.3f)", r.Name, r.NormIPC[4], r.NormIPC[0])
		}
		// Energy at 100% HP should not exceed baseline.
		if r.NormEnergy[4] > 1.02 {
			t.Errorf("%s: energy at 100%% HP = %.3f, want ≤ ~1", r.Name, r.NormEnergy[4])
		}
	}
	// Random synthetic aggregate exists and shows speedup at 100%.
	if res.RandomIPC[4] <= 1.0 {
		t.Errorf("RANDOM-GMEAN at 100%% = %.3f, want > 1", res.RandomIPC[4])
	}
	// The 41-real-profile aggregate here only includes x-app.
	if res.GMeanIPC[4] <= 0 {
		t.Error("GMEAN missing")
	}
}

func TestRunFig13Shape(t *testing.T) {
	opts := tinyOpts()
	opts.TargetInstructions = 15_000
	ps := tinyProfiles()
	light := workload.Profile{Name: "x-light", Pattern: workload.PatternRandom,
		FootprintPages: 128, BubbleMean: 12, WriteFrac: 0.2}
	groups := map[string][]workload.Mix{
		"H": {{Name: "H00", Profiles: [4]workload.Profile{ps[0], ps[1], ps[2], ps[0]}}},
		"L": {{Name: "L00", Profiles: [4]workload.Profile{light, light, light, light}}},
	}
	out, err := Run(context.Background(), Fig13Spec(groups), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := *out.Fig13
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.GroupWS["H"] == nil || res.GroupWS["L"] == nil {
		t.Fatal("missing group aggregates")
	}
	// High-intensity group gains more at 100% HP than low-intensity (§8.3).
	hGain := res.GroupWS["H"][4]
	lGain := res.GroupWS["L"][4]
	if hGain <= lGain {
		t.Errorf("H-group gain (%.3f) should exceed L-group (%.3f)", hGain, lGain)
	}
	if res.GMeanWS[4] < 1.0 {
		t.Errorf("overall WS at 100%% HP = %.3f, want ≥ 1", res.GMeanWS[4])
	}
}

func TestRunFig15Shape(t *testing.T) {
	opts := tinyOpts()
	profiles := tinyProfiles()[:2]
	out, err := Run(context.Background(), Fig15Spec(profiles, []float64{1.0}), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Fig15
	if len(rows) != len(REFWSettings) {
		t.Fatalf("rows = %d, want %d", len(rows), len(REFWSettings))
	}
	// Refresh energy at 194 ms must be far below 64 ms (fewer, cheaper
	// REFs): the paper reports 87.1% total reduction vs baseline.
	r64, r194 := rows[0], rows[len(rows)-1]
	if r194.NormRefresh[0] >= r64.NormRefresh[0] {
		t.Errorf("refresh energy at 194 ms (%.3f) should be below 64 ms (%.3f)",
			r194.NormRefresh[0], r64.NormRefresh[0])
	}
	if r64.NormRefresh[0] >= 1.0 {
		t.Errorf("CLR-64 refresh energy = %.3f, want < 1 (reduced tRFC)", r64.NormRefresh[0])
	}
	// Performance stays a win over baseline at every setting.
	for _, r := range rows {
		if r.NormPerf[0] <= 1.0 {
			t.Errorf("CLR-%v performance = %.3f, want > 1", r.REFWms, r.NormPerf[0])
		}
	}
}

func TestTable1Format(t *testing.T) {
	s := Table1(core.DefaultTable())
	// 46.5% here vs the paper's 46.4%: the published table rounds tRP to
	// one decimal (8.3/15.5 → 46.45%), so our recomputed percentage rounds
	// up.
	for _, want := range []string{"tRCD", "tRAS", "tRP", "tWR", "60.1%", "64.2%", "46.5%", "35.2%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, s)
		}
	}
}
