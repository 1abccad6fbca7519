package spice

import (
	"context"

	"clrdram/internal/dram"
	"clrdram/internal/engine"
)

// AlternativeTimings holds calibrated nanosecond timings for the §9
// comparison designs, derived from their circuit topologies with the same
// baseline calibration as BuildTimingTable.
type AlternativeTimings struct {
	Baseline dram.TimingNS
	CLRHP    dram.TimingNS // CLR-DRAM high-performance w/ E.T.
	TwinCell dram.TimingNS
	MCR      dram.TimingNS
	TLNear   dram.TimingNS
	Source   string
}

// BuildAlternativeTimings extracts and calibrates timing parameters for
// CLR-DRAM's high-performance mode and the three §9 comparison designs.
// Monte Carlo worst case per design, like BuildTimingTable; the five
// campaigns run as one flat batch on opts.Workers workers.
func BuildAlternativeTimings(p Params, opts TableOptions) (*AlternativeTimings, error) {
	opts = opts.withDefaults()
	// Campaign order matters only for the seed offsets, which are kept as
	// one per design, counted from opts.Seed.
	modes := []Mode{ModeBaseline, ModeHighPerf, ModeTwinCell, ModeMCR, ModeTLNear}
	specs := make([]mcSpec, len(modes))
	for i, m := range modes {
		specs[i] = mcSpec{Mode: m, Iters: opts.Iterations, Seed: opts.Seed + int64(i), Sigma: opts.Sigma}
	}
	raws, err := monteCarloMany(context.Background(), engine.NewPool(opts.Workers), p, specs)
	if err != nil {
		return nil, err
	}
	base := raws[0]
	cal := CalibrateBaseline(base)
	mk := func(raw RawTimings, et bool) dram.TimingNS {
		t := dram.DDR4BaselineNS()
		ras, wr := raw.RASFull, raw.WRFull
		if et {
			ras, wr = raw.RASET, raw.WRET
		}
		t.RCD = raw.RCD * cal.RCD
		t.RAS = ras * cal.RAS
		t.RP = raw.RP * cal.RP
		t.WR = wr * cal.WR
		return t
	}

	out := &AlternativeTimings{Source: "circuit-simulation"}
	out.Baseline = mk(base, false)

	// Early termination is CLR-DRAM's optimisation (§3.5); the static
	// designs restore fully.
	out.CLRHP = mk(raws[1], true)
	out.TwinCell = mk(raws[2], false)
	out.MCR = mk(raws[3], false)
	out.TLNear = mk(raws[4], false)
	// CLR-DRAM's reduced refresh latency (§3.6); the static alternatives
	// refresh at baseline tRFC (their activation path is not accelerated
	// by coupled SAs/PUs — twin-cell gains retention, not tRFC).
	rasRed := 1 - out.CLRHP.RAS/out.Baseline.RAS
	rpRed := 1 - out.CLRHP.RP/out.Baseline.RP
	out.CLRHP.RFC = out.Baseline.RFC * (1 - (rasRed+rpRed)/2)
	return out, nil
}
