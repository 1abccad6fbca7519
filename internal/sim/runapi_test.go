package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// TestRunMixSpec checks the mix path populates Outcome.Single with four
// cores' worth of results.
func TestRunMixSpec(t *testing.T) {
	mix := workload.MixGroups(1, 1)[workload.GroupL][0]
	opts := ffDiffOpts()
	opts.CollectStats = false
	out, err := Run(context.Background(), MixSpec(mix, core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Single == nil || len(out.Single.PerCore) != 4 {
		t.Fatalf("Run(MixSpec) = %+v, want four-core Single outcome", out)
	}
	if out.Single.Report != nil {
		t.Error("CollectStats=false should suppress the report")
	}
}

// TestParseFFMode pins the CLI and serve spellings of the fast-forward
// mode: every on and off spelling parses and round-trips through String,
// and the retired "adaptive" mode and junk are errors.
func TestParseFFMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FFMode
		ok   bool
	}{
		{"on", FFOn, true},
		{"", FFOn, true},
		{"always", FFOn, true},
		{"true", FFOn, true},
		{"1", FFOn, true},
		{"off", FFOff, true},
		{"false", FFOff, true},
		{"0", FFOff, true},
		{"adaptive", 0, false},
		{"On", 0, false},
		{"sometimes", 0, false},
	} {
		got, err := ParseFFMode(tc.in)
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseFFMode(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseFFMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			continue
		}
		if back, err := ParseFFMode(got.String()); err != nil || back != got {
			t.Errorf("%v does not round-trip through String: %v, %v", got, back, err)
		}
	}
}

// TestRunInvalidSpec checks the zero Spec is rejected with a typed error.
func TestRunInvalidSpec(t *testing.T) {
	_, err := Run(context.Background(), Spec{}, Options{})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Driver != "run" {
		t.Errorf("Driver = %q, want %q", re.Driver, "run")
	}
}

// TestRunCancelled checks a pre-cancelled context aborts the run with a
// *RunError wrapping context.Canceled, for both the direct system loop and
// the engine-fanned sweep drivers.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []Spec{
		SingleSpec(randomProfile(), core.Baseline()),
		Fig12Spec([]workload.Profile{randomProfile()}),
	} {
		_, err := Run(ctx, spec, ffDiffOpts())
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%s: err = %v, want *RunError", spec.kind, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want to wrap context.Canceled", spec.kind, err)
		}
	}
}

// TestRunErrorIdentity checks a failing run reports which workload and
// configuration failed.
func TestRunErrorIdentity(t *testing.T) {
	p := randomProfile()
	_, err := Run(context.Background(), SingleSpec(p, core.CLR(1.5)), // HPFraction > 1
		ffDiffOpts())
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Driver != "single" || re.Workload != p.Name {
		t.Errorf("RunError identity = (%q, %q), want (single, %s)", re.Driver, re.Workload, p.Name)
	}
}

// TestBadOptionsTypedError feeds options no system can be built from to
// NewSystem, to a single run and to a Fig. 12 sweep row: each returns an
// *OptionsError naming the field, before prewarm builds anything. The LLC
// and core sizes used to panic in cache.New or in makeslice; the clock, the
// issue width and the LLC MSHR count used to run to MaxCPUCycles and time
// out.
func TestBadOptionsTypedError(t *testing.T) {
	mcf, _ := workload.ByName("429.mcf-like")
	for _, c := range []struct {
		field string
		edit  func(*Options)
	}{
		{"LLC.SizeBytes", func(o *Options) { o.LLC.SizeBytes = 3 << 20 }},
		{"LLC.Ways", func(o *Options) { o.LLC.Ways = -1 }},
		{"LLC.MSHRs", func(o *Options) { o.LLC.MSHRs = -1 }},
		{"CPU.WindowSize", func(o *Options) { o.CPU.WindowSize = -1 }},
		{"CPU.MSHRs", func(o *Options) { o.CPU.MSHRs = -1 }},
		{"CPU.IssueWidth", func(o *Options) { o.CPU.IssueWidth = -1 }},
		{"CPUClockGHz", func(o *Options) { o.CPUClockGHz = -4 }},
		{"CPUClockGHz", func(o *Options) { o.CPUClockGHz = math.NaN() }},
		{"CPUClockGHz", func(o *Options) { o.CPUClockGHz = 1e-300 }}, // newDevClock would never return
	} {
		opts := DefaultOptions()
		opts.TargetInstructions = 2_000
		c.edit(&opts)
		var oe *OptionsError
		if _, err := NewSystem([]workload.Profile{mcf}, core.CLR(0.5), opts); !errors.As(err, &oe) || oe.Field != c.field {
			t.Errorf("%s: NewSystem error %v, want an *OptionsError on it", c.field, err)
		}
		if _, err := Run(context.Background(), SingleSpec(mcf, core.Baseline()), opts); !errors.As(err, &oe) || oe.Field != c.field {
			t.Errorf("%s: single run error %v, want an *OptionsError on it", c.field, err)
		}
		if _, err := Run(context.Background(), Fig12Spec([]workload.Profile{mcf}), opts); !errors.As(err, &oe) || oe.Field != c.field {
			t.Errorf("%s: Fig. 12 sweep error %v, want an *OptionsError on it", c.field, err)
		}
	}
}
