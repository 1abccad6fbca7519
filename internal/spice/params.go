// Package spice models DRAM subarrays at the circuit level — the substitute
// for the paper's SPICE evaluation (§7). It builds transient netlists
// (package circuit) for three subarray topologies:
//
//   - the conventional open-bitline baseline (Figure 4a),
//   - CLR-DRAM max-capacity mode (Figure 5a): every bitline reaches its
//     sense amplifier through a Type 1 bitline mode select transistor, and
//     precharge may couple the precharge units at both subarray edges,
//   - CLR-DRAM high-performance mode (Figure 5c): two adjacent cells store
//     complementary charge on a bitline pair that is driven by two coupled
//     sense amplifiers, one at each end.
//
// From these netlists it extracts the four key timing parameters (tRCD,
// tRAS w/ and w/o early termination, tRP, tWR), produces the Figure 7/8
// waveforms, sweeps the refresh window for Figure 11, and runs the paper's
// Monte Carlo methodology (§7.1: N iterations with 5% component variation,
// worst case taken, correctness required in every iteration).
//
// Raw simulated times are mapped to nanoseconds by calibrating four scale
// factors against the paper's baseline Table 1 column once; every mode and
// optimisation *delta* comes from the simulated topology (see DESIGN.md §2).
package spice

import (
	"math"
	"math/rand"
)

// Params holds every circuit parameter of the subarray model. All values
// are SI (volts, farads, ohms, amps, seconds).
type Params struct {
	VDD float64 // core supply (1.2 V for DDR4)
	VPP float64 // boosted wordline / isolation gate voltage

	CellCap float64 // storage capacitor (≈22 fF, Rambus-derived)

	Segments   int     // bitline segments (lumped RC π-model)
	BitlineCap float64 // total bitline capacitance (≈85 fF)
	BitlineRes float64 // total bitline resistance

	AccessK  float64 // cell access transistor transconductance (A/V²)
	AccessVt float64

	SACap float64 // sense-amplifier internal port capacitance
	SAK   float64 // SA latch transistor transconductance
	SAVt  float64

	IsoK  float64 // bitline mode select (isolation) transistor
	IsoVt float64

	PrechargeK  float64 // precharge/equalisation transistor
	PrechargeVt float64

	WriteG float64 // write driver conductance (S)

	// Control thresholds.
	SenseVth     float64 // ΔV at which internal control enables the SA (Ⓐ)
	ReadyFrac    float64 // bitline swing fraction defining ready-to-access (Ⓑ)
	RestoreFrac  float64 // cell fraction of VDD defining full restoration
	EmptyFrac    float64 // low-cell fraction of VDD defining full discharge
	ETFrac       float64 // early-termination voltage VET as a fraction of VDD
	PrechargeTol float64 // |V − VDD/2| defining precharge completion

	// LeakI is the junction leakage per cell at the reference temperature
	// (A, §7.1's dominant-leakage-path assumption). EffectiveLeak derates
	// it for other temperatures.
	LeakI float64
	// TempC is the operating temperature. The paper models the worst-case
	// 85°C; junction leakage roughly doubles per +10°C, so lower
	// temperatures extend retention (and the Figure 11 sweep limit).
	TempC float64

	Dt      float64 // integration step (s)
	MaxTime float64 // per-phase simulation bound (s)

	// Solver controls (not circuit components; never varied by Perturb).
	//
	// Interpreted pins the circuit's interpreted stepping path instead of
	// the compiled kernel — a debugging escape hatch; both paths are
	// bit-identical (make ckdiff). CheckStride is the number of steps
	// between stop-predicate evaluations in the extraction phases (ops.go):
	// every predicate is a monotone threshold crossing, so a stride of N finds
	// the same crossing quantised up by at most (N−1)·Dt (3 ps at the
	// defaults — ~0.3% of the shortest phase). 0 means 1 (check every
	// step); Default sets 4.
	Interpreted bool
	CheckStride int

	// BatchWidth is the number of Monte Carlo draws stepped simultaneously
	// through the batched circuit kernel (circuit.CompileBatch, DESIGN.md
	// §12). Lanes are independent circuits, so every width produces
	// bit-identical timings — the knob trades nothing but memory for
	// throughput. 0 means 1 (unbatched); Default sets DefaultBatchWidth.
	// Interpreted forces 1 (the interpreted loop has no batched form).
	BatchWidth int
}

// DefaultBatchWidth is the Monte Carlo batch width Default selects.
// Measured draws/s keeps rising through K=64 on the BENCH_circuit.json
// machine (fixed per-draw costs amortise over the batch), but with
// shrinking returns past K=32 and growing wasted work when a campaign's
// draw count doesn't divide the width, so Default stops at 32; see
// EXPERIMENTS.md W3 for the sweep.
const DefaultBatchWidth = 32

// Default returns the calibrated nominal parameter set. Component values
// follow the paper's methodology (Rambus-derived cell/bitline values scaled
// to 22 nm, PTM-like transistor strengths); control thresholds are tuned so
// the baseline topology reproduces DDR4-datasheet-like timing ratios.
func Default() Params {
	return Params{
		VDD: 1.2,
		VPP: 2.2,

		CellCap: 22e-15,

		Segments:   4,
		BitlineCap: 85e-15,
		BitlineRes: 20e3,

		AccessK:  0.9e-4,
		AccessVt: 0.5,

		SACap: 8e-15,
		SAK:   2.2e-4,
		SAVt:  0.4,

		IsoK:  8.0e-4,
		IsoVt: 0.5,

		PrechargeK:  1.3e-4,
		PrechargeVt: 0.5,

		WriteG: 6e-4,

		SenseVth:     0.08,
		ReadyFrac:    0.75,
		RestoreFrac:  0.975,
		EmptyFrac:    0.05,
		ETFrac:       0.85,
		PrechargeTol: 0.04,

		LeakI: 6.2e-14,
		TempC: 85,

		Dt:      1e-12,
		MaxTime: 400e-9,

		CheckStride: 4,
		BatchWidth:  DefaultBatchWidth,
	}
}

// Perturb returns a copy with every analog component value scaled by an
// independent N(1, sigma) factor (the paper's §7.1 Monte Carlo: 5%
// variation in every circuit component). Control thresholds and the grid
// are not varied — they model digital control, not analog components.
func (p Params) Perturb(rng *rand.Rand, sigma float64) Params {
	vary := func(x float64) float64 {
		f := 1 + rng.NormFloat64()*sigma
		// Clip to ±4σ to keep pathological draws physical.
		if f < 1-4*sigma {
			f = 1 - 4*sigma
		}
		if f > 1+4*sigma {
			f = 1 + 4*sigma
		}
		return x * f
	}
	q := p
	q.CellCap = vary(p.CellCap)
	q.BitlineCap = vary(p.BitlineCap)
	q.BitlineRes = vary(p.BitlineRes)
	q.AccessK = vary(p.AccessK)
	q.AccessVt = vary(p.AccessVt)
	q.SAK = vary(p.SAK)
	q.SAVt = vary(p.SAVt)
	q.IsoK = vary(p.IsoK)
	q.IsoVt = vary(p.IsoVt)
	q.PrechargeK = vary(p.PrechargeK)
	q.PrechargeVt = vary(p.PrechargeVt)
	q.WriteG = vary(p.WriteG)
	q.SACap = vary(p.SACap)
	q.LeakI = vary(p.LeakI)
	return q
}

// EffectiveLeak returns the cell leakage current at the configured
// temperature, using the standard doubling-per-10°C junction-leakage rule
// anchored at the 85°C worst case the paper models.
func (p Params) EffectiveLeak() float64 {
	if p.TempC == 0 {
		return p.LeakI // zero value: treat as the 85°C reference
	}
	return p.LeakI * math.Pow(2, (p.TempC-85)/10)
}

// Mode selects the subarray topology.
type Mode int

// Topologies. Besides the paper's own three, the package models the three
// related designs §9 compares against, so the comparison can be made
// quantitative:
//
//   - Twin-Cell DRAM (Takemura et al.): two complementary cells statically
//     coupled on a bitline pair, but driven by a *single* SA — no coupled
//     sense amplifiers or precharge units, which is exactly the limitation
//     the paper calls out;
//   - MCR-DRAM (Choi et al.): two clone rows activated together, doubling
//     the charge on the *same* bitline (no differential boost, single SA);
//   - TL-DRAM's near segment (Lee et al.): a conventional cell on a short
//     (1/8-length) bitline behind an isolation transistor — fast but a
//     small, fixed region.
const (
	ModeBaseline Mode = iota // conventional open-bitline (Figure 4a)
	ModeMaxCap               // CLR-DRAM max-capacity (Figure 5a)
	ModeHighPerf             // CLR-DRAM high-performance (Figure 5b)
	ModeTwinCell             // §9: static twin-cell, single SA
	ModeMCR                  // §9: two clone rows, single SA
	ModeTLNear               // §9: TL-DRAM near segment (short bitline)
)

// String names the topology.
func (m Mode) String() string {
	return [...]string{"baseline", "max-capacity", "high-performance",
		"twin-cell", "mcr-dram", "tl-dram-near"}[m]
}

// TLNearFraction is the modelled TL-DRAM near-segment length as a fraction
// of the full bitline (Lee et al. use short near segments; 1/8 here).
const TLNearFraction = 0.125
