package spice

import (
	"context"
	"fmt"
	"math/rand"

	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/engine"
)

// RawTimings are circuit-extracted operation latencies in seconds.
type RawTimings struct {
	RCD     float64 // activation: wordline assert → ready-to-access
	RASFull float64 // activation: wordline assert → full restoration
	RASET   float64 // activation: → early-termination restoration
	RP      float64 // precharge command → bitlines settled
	WRFull  float64 // write driver start → full restoration
	WRET    float64 // write driver start → early-termination level
}

// MonteCarlo runs the paper's §7.1 methodology: iters independent parameter
// draws with sigma (5%) variation on every circuit component; the returned
// timings are the worst case over all draws, and any draw that fails to
// read the correct value is an error (the paper requires every iteration to
// read correctly).
//
// Seed scheme: iteration 0 is the nominal (unperturbed) draw; iteration
// i > 0 perturbs with a private rand.Rand seeded by engine.DeriveSeed(seed,
// i) — splitmix64 of seed ^ (i+1)·gamma — instead of threading one shared
// variate stream through all iterations. Each iteration's draw therefore
// depends only on (seed, i), so sharding the iteration space across any
// number of workers reproduces the serial variate streams exactly, and the
// worst-case reduction (a commutative max) makes the result bit-identical
// at every worker count.
func MonteCarlo(p Params, mode Mode, iters int, seed int64, sigma float64) (RawTimings, error) {
	return MonteCarloPool(context.Background(), nil, p, mode, iters, seed, sigma)
}

// MonteCarloPool is MonteCarlo sharded across the pool's workers (nil pool:
// one worker per CPU) with cancellation through ctx. See MonteCarlo for the
// determinism contract.
func MonteCarloPool(ctx context.Context, pool *engine.Pool, p Params, mode Mode, iters int, seed int64, sigma float64) (RawTimings, error) {
	out, err := monteCarloMany(ctx, pool, p, []mcSpec{{Mode: mode, Iters: iters, Seed: seed, Sigma: sigma}})
	if err != nil {
		return RawTimings{}, err
	}
	return out[0], nil
}

// mcSpec is one Monte Carlo campaign in a batched run.
type mcSpec struct {
	Mode  Mode
	Iters int
	Seed  int64
	Sigma float64
	// InitVFrac overrides the charged cell's starting voltage as a fraction
	// of VDD; 0 means a freshly restored cell (RestoreFrac).
	InitVFrac float64
}

// monteCarloMany runs several independent Monte Carlo campaigns as one flat
// chunk list on the pool, so short campaigns don't serialize behind long
// ones. Results are indexed like specs.
//
// Each task is a chunk of up to p.BatchWidth consecutive iterations of one
// campaign, extracted together through the batched circuit kernel
// (BatchExtractor). Each iteration's draw depends only on (seed, iter) —
// see MonteCarlo — so chunking changes neither any draw nor (lanes being
// independent) any extracted bit; the worst-case reduction is a
// commutative max over draws regardless of grouping, and a failing run
// still reports the lowest failing iteration (errors surface in iteration
// order within a chunk, and engine.Map keeps the lowest-indexed task
// failure). Width-1 chunks step one lane in place through the compiled
// single-circuit kernel, which is what `-ckbatch 1` pins.
func monteCarloMany(ctx context.Context, pool *engine.Pool, p Params, specs []mcSpec) ([]RawTimings, error) {
	bw := p.BatchWidth
	if bw < 1 || p.Interpreted {
		bw = 1
	}
	type chunk struct {
		spec, start, n int
	}
	var chunks []chunk
	for si, sp := range specs {
		if sp.Iters < 1 {
			return nil, fmt.Errorf("spice: Monte Carlo needs ≥1 iteration")
		}
		for i := 0; i < sp.Iters; i += bw {
			n := bw
			if i+n > sp.Iters {
				n = sp.Iters - i
			}
			chunks = append(chunks, chunk{si, i, n})
		}
	}
	raws, err := engine.Map(ctx, pool, chunks, func(_ context.Context, _ int, ch chunk) (RawTimings, error) {
		sp := specs[ch.spec]
		draws := make([]Params, ch.n)
		initV := make([]float64, ch.n)
		for j := range draws {
			iter := ch.start + j
			q := p
			if iter > 0 { // iteration 0 is the nominal draw
				rng := rand.New(rand.NewSource(engine.DeriveSeed(sp.Seed, iter)))
				q = p.Perturb(rng, sp.Sigma)
			}
			draws[j] = q
			initV[j] = q.RestoreFrac * q.VDD
			if sp.InitVFrac != 0 {
				initV[j] = sp.InitVFrac * q.VDD
			}
		}
		out, errs := pooledExtract(sp.Mode, draws, initV)
		var worst RawTimings
		for j, err := range errs {
			if err != nil {
				return worst, fmt.Errorf("spice: Monte Carlo iteration %d: %w", ch.start+j, err)
			}
			worst = worstOf(worst, out[j])
		}
		return worst, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]RawTimings, len(specs))
	for ci, ch := range chunks {
		out[ch.spec] = worstOf(out[ch.spec], raws[ci])
	}
	return out, nil
}

// worstOf is the per-parameter max — the §7.1 worst-case reduction. It is
// commutative and associative, so the reduction order (and therefore the
// worker count) cannot change the result.
func worstOf(a, b RawTimings) RawTimings {
	return RawTimings{
		RCD:     maxF(a.RCD, b.RCD),
		RASFull: maxF(a.RASFull, b.RASFull),
		RASET:   maxF(a.RASET, b.RASET),
		RP:      maxF(a.RP, b.RP),
		WRFull:  maxF(a.WRFull, b.WRFull),
		WRET:    maxF(a.WRET, b.WRET),
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Calibration maps raw simulated seconds to nanoseconds. One scale factor
// per timing parameter, fit once against the paper's baseline Table 1
// column; every mode and optimisation delta then comes from the simulated
// topologies (DESIGN.md §2).
type Calibration struct {
	RCD, RAS, RP, WR float64 // ns per second of raw time
}

// CalibrateBaseline fits the scale factors from a baseline raw measurement.
func CalibrateBaseline(raw RawTimings) Calibration {
	b := dram.DDR4BaselineNS()
	return Calibration{
		RCD: b.RCD / raw.RCD,
		RAS: b.RAS / raw.RASFull,
		RP:  b.RP / raw.RP,
		WR:  b.WR / raw.WRFull,
	}
}

// TableOptions configures BuildTimingTable. The solver controls (stepping
// path, batch width, check stride) travel in the Params it takes.
type TableOptions struct {
	Iterations int     // Monte Carlo draws per mode (paper: 10⁴); default 2000
	Seed       int64   // default 1
	Sigma      float64 // component variation; default 0.05 (5%)
	SweepStep  float64 // refresh-window sweep step in ms; default 10
	Workers    int     // parallel workers for the Monte Carlo draws; 0 = GOMAXPROCS
}

func (o TableOptions) withDefaults() TableOptions {
	if o.Iterations == 0 {
		// The compiled kernel plus in-place re-parameterisation made the
		// draws cheap enough to default to the paper-scale methodology
		// (§7.1 uses 10⁴; 2000 keeps the default table build interactive).
		o.Iterations = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sigma == 0 {
		o.Sigma = 0.05
	}
	if o.SweepStep == 0 {
		o.SweepStep = 10
	}
	return o
}

// BuildTimingTable regenerates the paper's Table 1 and Figure 11 inputs
// from the circuit model: Monte Carlo worst-case timings for the three
// topologies, calibrated to nanoseconds against the baseline column, plus
// the refresh-window sensitivity curve for high-performance rows.
func BuildTimingTable(p Params, opts TableOptions) (*core.TimingTable, error) {
	opts = opts.withDefaults()

	// One flat batch: the three Monte Carlo campaigns plus the two nominal
	// single-draw extractions, all independent, sharded across the pool.
	pool := engine.NewPool(opts.Workers)
	raws, err := monteCarloMany(context.Background(), pool, p, []mcSpec{
		{Mode: ModeBaseline, Iters: opts.Iterations, Seed: opts.Seed, Sigma: opts.Sigma},
		{Mode: ModeMaxCap, Iters: opts.Iterations, Seed: opts.Seed + 1, Sigma: opts.Sigma},
		{Mode: ModeHighPerf, Iters: opts.Iterations, Seed: opts.Seed + 2, Sigma: opts.Sigma},
		// The "w/ E.T." column additionally reflects the next activation
		// starting from VET instead of full restoration: extract the HP
		// tRCD with a VET-restored cell (nominal parameters).
		{Mode: ModeHighPerf, Iters: 1, InitVFrac: p.ETFrac},
		// Nominal HP draw: denominator of the MC variation margin below.
		{Mode: ModeHighPerf, Iters: 1},
	})
	if err != nil {
		return nil, err
	}
	base, mc, hp, hpET, nominalHP := raws[0], raws[1], raws[2], raws[3], raws[4]

	cal := CalibrateBaseline(base)
	tab := &core.TimingTable{Source: "circuit-simulation"}

	mk := func(rcd, ras, rp, wr float64) dram.TimingNS {
		t := dram.DDR4BaselineNS() // protocol timings (CL, CWL, ...) shared
		t.RCD = rcd * cal.RCD
		t.RAS = ras * cal.RAS
		t.RP = rp * cal.RP
		t.WR = wr * cal.WR
		return t
	}
	tab.Baseline = mk(base.RCD, base.RASFull, base.RP, base.WRFull)
	tab.MaxCap = mk(mc.RCD, mc.RASFull, mc.RP, mc.WRFull)
	tab.HighPerfNoET = mk(hp.RCD, hp.RASFull, hp.RP, hp.WRFull)
	// w/ E.T.: tRCD from the VET-restored activation (scaled by the MC
	// worst/nominal ratio so variation margin carries over), tRAS/tWR from
	// the early-termination crossings.
	mcMargin := hp.RCD / nominalHP.RCD
	tab.HighPerfET = mk(hpET.RCD*mcMargin, hp.RASET, hp.RP, hp.WRET)

	// High-performance tRFC follows the §8.1 rule: reduced by the mean of
	// the tRAS and tRP reductions.
	applyRFC := func(t *dram.TimingNS) {
		rasRed := 1 - t.RAS/tab.Baseline.RAS
		rpRed := 1 - t.RP/tab.Baseline.RP
		t.RFC = tab.Baseline.RFC * (1 - (rasRed+rpRed)/2)
	}
	applyRFC(&tab.HighPerfET)
	applyRFC(&tab.HighPerfNoET)

	// Figure 11: refresh-window sweep at nominal parameters; curve values
	// are the table's 64 ms point plus the simulated delta.
	sweep, err := REFWSweep(p, opts.SweepStep)
	if err != nil {
		return nil, err
	}
	if len(sweep) == 0 {
		return nil, fmt.Errorf("spice: refresh-window sweep produced no points")
	}
	base64 := sweep[0]
	for _, pt := range sweep {
		tab.REFWCurve = append(tab.REFWCurve, core.REFWPoint{
			Ms:  pt.Ms,
			RCD: tab.HighPerfET.RCD + (pt.RCD-base64.RCD)*cal.RCD,
			RAS: tab.HighPerfET.RAS + (pt.RAS-base64.RAS)*cal.RAS,
		})
	}
	return tab, nil
}

// SweepPoint is one refresh-window sweep sample with raw (seconds) timings.
type SweepPoint struct {
	Ms  float64
	RCD float64
	RAS float64
	V0  float64 // decayed cell voltage at activation
}

// REFWSweep sweeps the refresh window in stepMs increments starting at
// 64 ms (the paper's Figure 11 methodology: "in increments of 10 ms until
// the reduced charge level ... is too low for the SA to sense correctly")
// and returns one point per window that still senses correctly.
func REFWSweep(p Params, stepMs float64) ([]SweepPoint, error) {
	var out []SweepPoint
	var s *Subarray
	for ms := 64.0; ; ms += stepMs {
		v0 := p.ETFrac*p.VDD - p.EffectiveLeak()*(ms/1000)/p.CellCap
		if v0 <= 0 {
			break
		}
		// One netlist for the whole sweep, reset in place between points.
		if s == nil {
			var err error
			if s, err = Build(p, ModeHighPerf); err != nil {
				return nil, err
			}
		} else if !s.Reparam(p) {
			return nil, fmt.Errorf("spice: refresh sweep could not reset the netlist")
		}
		s.InitData(true, v0)
		act, err := s.Activate(nil)
		if err != nil || !act.OK {
			break // sensing failed: the sweep ends here (paper Fig. 11)
		}
		out = append(out, SweepPoint{Ms: ms, RCD: act.TRCD, RAS: act.TRASET, V0: v0})
		if ms > 1000 {
			return nil, fmt.Errorf("spice: refresh sweep did not terminate (leakage too low)")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("spice: refresh sweep failed at the 64 ms baseline window")
	}
	return out, nil
}

// WaveformActPre produces the Figure 7 waveform: a full activate +
// precharge sequence sampled every `every` seconds, for the given topology.
func WaveformActPre(p Params, mode Mode, every float64) ([]Sample, RawTimings, error) {
	s, err := Build(p, mode)
	if err != nil {
		return nil, RawTimings{}, err
	}
	rec := &Recorder{Every: every}
	s.InitData(true, p.RestoreFrac*p.VDD)
	act, err := s.Activate(rec)
	if err != nil {
		return nil, RawTimings{}, err
	}
	rp, err := s.Precharge(rec)
	if err != nil {
		return nil, RawTimings{}, err
	}
	raw := RawTimings{RCD: act.TRCD, RASFull: act.TRASFull, RASET: act.TRASET, RP: rp}
	return rec.Samples, raw, nil
}
