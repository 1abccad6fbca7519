package sim

import (
	"context"
	"fmt"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// Spec names one unit of simulation work for Run: a single-workload run, a
// multiprogrammed mix, one of the paper-figure sweeps, or the related-work
// comparison. Construct specs with the *Spec functions below; the zero Spec
// is invalid.
type Spec struct {
	kind        specKind
	profile     workload.Profile
	mix         workload.Mix
	clr         core.Config
	profiles    []workload.Profile
	groups      map[string][]workload.Mix
	fractions   []float64
	clrFraction float64
}

type specKind int

const (
	specInvalid specKind = iota
	specSingle
	specMix
	specFig12
	specFig13
	specFig15
	specComparison
)

func (k specKind) String() string {
	switch k {
	case specSingle:
		return "single"
	case specMix:
		return "mix"
	case specFig12:
		return "fig12"
	case specFig13:
		return "fig13"
	case specFig15:
		return "fig15"
	case specComparison:
		return "comparison"
	default:
		return "invalid"
	}
}

// SingleSpec runs one workload on one core under the given configuration.
func SingleSpec(p workload.Profile, clr core.Config) Spec {
	return Spec{kind: specSingle, profile: p, clr: clr}
}

// MixSpec runs a multiprogrammed mix under the given configuration.
func MixSpec(m workload.Mix, clr core.Config) Spec {
	return Spec{kind: specMix, mix: m, clr: clr}
}

// Fig12Spec reproduces Figure 12 (and the single-core half of Figure 14):
// normalized IPC, DRAM energy and DRAM power for every workload at each
// high-performance row fraction. Workload rows are independent shards on
// the experiment engine: they fan out across Options.Workers goroutines
// (bit-identical results at any worker count), report through
// Options.Progress, and persist to Options.Checkpoint.
func Fig12Spec(profiles []workload.Profile) Spec {
	return Spec{kind: specFig12, profiles: profiles}
}

// Fig13Spec reproduces Figure 13: weighted speedup and DRAM energy of
// four-core mixes in the L/M/H intensity groups, normalized to baseline.
func Fig13Spec(groups map[string][]workload.Mix) Spec {
	return Spec{kind: specFig13, groups: groups}
}

// Fig15Spec reproduces Figure 15 (single-core variant): for each tREFW
// setting and each HP fraction (excluding 0%, which cannot extend tREFW),
// the normalized performance, DRAM energy, and refresh energy over a set of
// workloads (geometric means; refresh energy uses the arithmetic sum ratio
// because per-workload refresh energy can be ~0 for short runs).
func Fig15Spec(profiles []workload.Profile, fractions []float64) Spec {
	return Spec{kind: specFig15, profiles: profiles, fractions: fractions}
}

// ComparisonSpec runs the §9 related-work comparison: every workload under
// the DDR4 baseline, CLR-DRAM (at the given HP fraction) and the three §9
// alternatives, reported as normalized aggregates. The capacity column is
// the other half of the story: the static designs pay their capacity cost
// always, CLR-DRAM only when (and where) the system chooses to.
func ComparisonSpec(profiles []workload.Profile, clrFraction float64) Spec {
	return Spec{kind: specComparison, profiles: profiles, clrFraction: clrFraction}
}

// Outcome carries the result of one Run; exactly the field matching the
// spec's kind is set (Single for both SingleSpec and MixSpec).
type Outcome struct {
	Single     *Result
	Fig12      *Fig12Result
	Fig13      *Fig13Result
	Fig15      []Fig15Row
	Comparison []ComparisonRow
}

// Run is the single entry point behind every simulation driver: it executes
// spec under ctx with opts (zero fields normalised to DefaultOptions) and
// returns the matching Outcome field. Cancellation is uniform — every inner
// loop (single systems and engine-fanned sweeps alike) observes ctx — and
// every failure is a *RunError carrying the run's identity.
func Run(ctx context.Context, spec Spec, opts Options) (Outcome, error) {
	var out Outcome
	switch spec.kind {
	case specSingle, specMix:
		r := singleRow(spec.profile)
		if spec.kind == specMix {
			r = mixRow(spec.mix)
		}
		res, err := runSystem(ctx, r, spec.clr, opts, nil)
		if err != nil {
			return out, err
		}
		out.Single = &res
	case specFig12:
		res, err := runFig12(ctx, spec.profiles, opts)
		if err != nil {
			return out, runErr("fig12", "", core.Config{}, err)
		}
		out.Fig12 = &res
	case specFig13:
		res, err := runFig13(ctx, spec.groups, opts)
		if err != nil {
			return out, runErr("fig13", "", core.Config{}, err)
		}
		out.Fig13 = &res
	case specFig15:
		res, err := runFig15(ctx, spec.profiles, spec.fractions, opts)
		if err != nil {
			return out, runErr("fig15", "", core.Config{}, err)
		}
		out.Fig15 = res
	case specComparison:
		res, err := runComparison(ctx, spec.profiles, spec.clrFraction, opts)
		if err != nil {
			return out, runErr("comparison", "", core.Config{}, err)
		}
		out.Comparison = res
	default:
		return out, runErr("run", "", core.Config{}, fmt.Errorf("invalid Spec (use the *Spec constructors)"))
	}
	return out, nil
}
