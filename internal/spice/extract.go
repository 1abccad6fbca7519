package spice

import "sync"

// Extractor is the one-draw BatchExtractor: it runs the extraction on K=1
// lanes, stepping its two subarray instances in place, and re-parameterises
// them (Subarray.Reparam) between draws instead of rebuilding them. Because
// Reparam is bit-identical to a fresh build, extraction through a recycled
// Extractor yields the same bits as Extract on fresh netlists — which is
// what makes pooled reuse across Monte Carlo iterations safe. The zero
// value with Mode set is ready to use.
type Extractor struct {
	Mode Mode

	b BatchExtractor
}

// Extract runs the three operation phases for one parameter draw and
// returns raw timings. initV is the charged cell's starting voltage (use
// q.RestoreFrac·q.VDD for a freshly restored cell, lower values for
// leakage-decayed conditions).
func (e *Extractor) Extract(q Params, initV float64) (RawTimings, error) {
	e.b.Mode = e.Mode
	out, errs := e.b.ExtractBatch([]Params{q}, []float64{initV})
	return out[0], errs[0]
}

// Extract runs the three operation phases on a fresh subarray of the given
// topology and returns raw timings. See Extractor.Extract; this is the
// one-shot form.
func Extract(p Params, mode Mode, initV float64) (RawTimings, error) {
	e := Extractor{Mode: mode}
	return e.Extract(p, initV)
}

// extractorPools recycle BatchExtractors per topology across Monte Carlo
// chunks, so each draw pays an in-place Reparam instead of two netlist
// builds. K=1 extractors have their own pools: a width change rebuilds
// every lane, so a nominal single draw must not land on a K-wide extractor.
var extractorPools [2][ModeTLNear + 1]sync.Pool

// pooledExtract runs one chunk of draws through a recycled (or fresh)
// BatchExtractor.
func pooledExtract(mode Mode, draws []Params, initV []float64) ([]RawTimings, []error) {
	width := 0
	if len(draws) > 1 {
		width = 1
	}
	pool := &extractorPools[width][mode]
	e, _ := pool.Get().(*BatchExtractor)
	if e == nil {
		e = &BatchExtractor{Mode: mode}
	}
	raws, errs := e.ExtractBatch(draws, initV)
	// Recycle even after failed draws: prepare restores every lane's
	// recorded initial state, so a half-run transient cannot leak.
	pool.Put(e)
	return raws, errs
}
