package spice

import (
	"fmt"

	"clrdram/internal/circuit"
)

// BatchExtractor runs the three-phase timing extraction for K Monte Carlo
// parameter draws at once. It owns K reusable subarray instances per
// operation group (activation+precharge, write path), re-parameterised in
// place between batches, and steps each group through one lane set: for
// K>1 the batched circuit kernel (circuit.CompileBatch, DESIGN.md §12), for
// K=1 a one-lane stepper over the compiled single-circuit kernel.
//
// Both run the same phase sequence (ops.go), phase-barriered: every draw
// completes a phase before any draw starts the next one. Because a draw
// that crosses its stop condition is parked with its state and clock
// frozen, and lanes are independent circuits, each draw's trajectory —
// voltages, phase times, error strings — is bit-identical at every batch
// width (TestBatchExtractMatchesSingle, make ckdiff). Per-draw failures
// (sense inversion, timeout, divergence) are isolated: the failed lane is
// parked and reported in its error slot while the rest of the batch
// completes.
type BatchExtractor struct {
	Mode Mode

	act []*Subarray // activation + precharge instances, one per draw
	wr  []*Subarray // write-path instances, one per draw

	lanes [2]lanes   // the act and wr groups' lane sets: a *circuit.Batch for K>1
	one   [2]oneLane // their K=1 form
}

// prepare sizes the instance groups to the batch width, points every lane
// at its draw's parameters (Reparam, rebuilding only when it cannot
// re-apply in place), and sets up the two lane sets, recompiling the
// batches after a rebuild. Draws must share the solver controls — they are
// never varied by Perturb, so any set of draws derived from one nominal
// Params qualifies.
func (e *BatchExtractor) prepare(draws []Params) error {
	k := len(draws)
	if k == 0 {
		return fmt.Errorf("spice: batch extraction needs ≥1 draw")
	}
	for _, q := range draws[1:] {
		if q.Dt != draws[0].Dt || q.MaxTime != draws[0].MaxTime || q.CheckStride != draws[0].CheckStride {
			return fmt.Errorf("spice: batched draws must share the solver controls (Dt, MaxTime, CheckStride)")
		}
	}
	if len(e.act) != k {
		e.act = make([]*Subarray, k)
		e.wr = make([]*Subarray, k)
		e.lanes = [2]lanes{}
	}
	rebuilt := false
	for i, q := range draws {
		for _, subs := range [2][]*Subarray{e.act, e.wr} {
			if subs[i] == nil || !subs[i].Reparam(q) {
				var err error
				if subs[i], err = Build(q, e.Mode); err != nil {
					return err
				}
				rebuilt = true
			}
		}
	}
	for gi, subs := range [2][]*Subarray{e.act, e.wr} {
		if k == 1 {
			e.one[gi] = oneLane{s: subs[0]}
			e.lanes[gi] = &e.one[gi]
			continue
		}
		if b, ok := e.lanes[gi].(*circuit.Batch); ok && !rebuilt {
			b.ClearErrors()
			continue
		}
		e.lanes[gi] = nil // never reuse a batch over replaced lanes
		cs := make([]*circuit.Circuit, k)
		for i, s := range subs {
			cs[i] = s.c
		}
		b, err := circuit.CompileBatch(cs)
		if err != nil {
			return err
		}
		e.lanes[gi] = b
	}
	return nil
}

// ExtractBatch runs the full extraction sequence (activate, precharge,
// write-activate, write) for every draw and returns per-draw timings and
// errors, indexed like draws. initV is each draw's charged-cell starting
// voltage (see Extractor.Extract). A setup failure (structural mismatch,
// inconsistent solver controls) is replicated into every error slot.
func (e *BatchExtractor) ExtractBatch(draws []Params, initV []float64) ([]RawTimings, []error) {
	k := len(draws)
	out := make([]RawTimings, k)
	errs := make([]error, k)
	var err error
	if len(initV) != k {
		err = fmt.Errorf("spice: batch extraction: %d draws but %d initial voltages", k, len(initV))
	} else {
		err = e.prepare(draws)
	}
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return out, errs
	}
	stride := draws[0].CheckStride

	// Activation + precharge on one instance.
	act := newGroup(e.lanes[0], e.act, errs, stride)
	for i, s := range e.act {
		s.InitData(true, initV[i])
	}
	acts := make([]ActResult, k)
	act.wrap = "spice: %v activation: %w"
	act.activate(acts)
	for i := range acts {
		if errs[i] == nil && !acts[i].OK {
			errs[i] = fmt.Errorf("spice: %v activation resolved incorrectly", e.Mode)
		}
	}
	rp := make([]float64, k)
	act.wrap = "spice: %v: %w"
	act.precharge(rp)

	// Activation (reading a '0') + write ('1') on the second instance: the
	// worst-case write charges the cell. A sense inversion on this
	// activation is not an error; it only skips the restoration phases.
	wr := newGroup(e.lanes[1], e.wr, errs, stride)
	for i, s := range e.wr {
		s.InitData(false, initV[i])
	}
	wr.wrap = "spice: %v write-activation: %w"
	wr.activate(make([]ActResult, k))
	wrs := make([]WrResult, k)
	wr.wrap = "spice: %v: %w"
	wr.write(wrs)

	for i, a := range acts {
		if errs[i] == nil {
			out[i] = RawTimings{RCD: a.TRCD, RASFull: a.TRASFull, RASET: a.TRASET,
				RP: rp[i], WRFull: wrs[i].TWRFull, WRET: wrs[i].TWRET}
		}
	}
	return out, errs
}
