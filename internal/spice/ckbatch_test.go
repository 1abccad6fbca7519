package spice

import (
	"math/rand"
	"strings"
	"testing"

	"clrdram/internal/engine"
)

// The batched half of the ckdiff suite (make ckdiff): extraction through
// the batched circuit kernel (BatchExtractor / circuit.CompileBatch) must
// be bit-identical to the one-lane Extractor — same RawTimings,
// same error strings — for every topology, batch width and CheckStride,
// because lanes are independent circuits and the batch replays the
// compiled kernel's float64 operations per lane (DESIGN.md §12).

// perturbedDraws returns k seeded variation draws of p (draw 0 nominal),
// the same scheme monteCarloMany uses.
func perturbedDraws(p Params, k int, seed int64) []Params {
	draws := make([]Params, k)
	for i := range draws {
		draws[i] = p
		if i > 0 {
			rng := rand.New(rand.NewSource(engine.DeriveSeed(seed, i)))
			draws[i] = p.Perturb(rng, 0.05)
		}
	}
	return draws
}

func TestBatchExtractMatchesSingle(t *testing.T) {
	// Every topology at widths 1, 4 and 8 (the shipped default), perturbed
	// draws: ExtractBatch must equal per-draw Extractor.Extract bitwise.
	p := Default()
	for _, mode := range []Mode{ModeBaseline, ModeMaxCap, ModeHighPerf, ModeTwinCell, ModeMCR, ModeTLNear} {
		for _, k := range []int{1, 4, 8} {
			draws := perturbedDraws(p, k, 23)
			initV := make([]float64, k)
			for i, q := range draws {
				initV[i] = q.RestoreFrac * q.VDD
			}
			be := &BatchExtractor{Mode: mode}
			got, errs := be.ExtractBatch(draws, initV)
			single := Extractor{Mode: mode}
			for i, q := range draws {
				if errs[i] != nil {
					t.Fatalf("%v K=%d draw %d: %v", mode, k, i, errs[i])
				}
				want, err := single.Extract(q, initV[i])
				if err != nil {
					t.Fatalf("%v K=%d draw %d single: %v", mode, k, i, err)
				}
				if got[i] != want {
					t.Errorf("%v K=%d draw %d: batch %+v != single %+v", mode, k, i, got[i], want)
				}
			}
		}
	}
}

func TestBatchExtractorReuseAcrossWidths(t *testing.T) {
	// One recycled BatchExtractor across successive batches of different
	// widths (what the sync.Pool does with a campaign's tail chunk) must
	// keep producing fresh-extractor bits.
	p := Default()
	be := &BatchExtractor{Mode: ModeHighPerf}
	for _, k := range []int{3, 3, 2, 4} {
		draws := perturbedDraws(p, k, 31)
		initV := make([]float64, k)
		for i, q := range draws {
			initV[i] = q.RestoreFrac * q.VDD
		}
		got, errs := be.ExtractBatch(draws, initV)
		for i, q := range draws {
			if errs[i] != nil {
				t.Fatalf("K=%d draw %d: %v", k, i, errs[i])
			}
			want, err := Extract(q, ModeHighPerf, initV[i])
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("K=%d draw %d: reused batch %+v != fresh single %+v", k, i, got[i], want)
			}
		}
	}
}

func TestMonteCarloBatchWidthIdentity(t *testing.T) {
	// The Monte Carlo result must not depend on the batch width — including
	// a width that does not divide the iteration count (tail chunk) and the
	// unbatched width 1 (the exact pre-batch code path).
	for _, mode := range ckModes {
		var ref RawTimings
		for wi, bw := range []int{1, 2, 4, 5, 8} {
			p := Default()
			p.BatchWidth = bw
			got, err := MonteCarlo(p, mode, 6, 7, 0.05)
			if err != nil {
				t.Fatalf("%v bw=%d: %v", mode, bw, err)
			}
			if wi == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("%v: bw=%d MC %+v != bw=1 %+v", mode, bw, got, ref)
			}
		}
	}
}

func TestBatchExtractFailureIsolation(t *testing.T) {
	// One impossible draw (sense threshold above the rail: charge sharing
	// can never cross) inside a healthy batch: that lane must report the
	// single path's exact error string, and every other lane's timings must
	// be untouched bitwise.
	p := Default()
	p.MaxTime = 40e-9 // keep the doomed lane's timeout walk short
	draws := perturbedDraws(p, 4, 41)
	draws[2].SenseVth = 10 // > VDD: unreachable
	initV := make([]float64, len(draws))
	for i, q := range draws {
		initV[i] = q.RestoreFrac * q.VDD
	}
	be := &BatchExtractor{Mode: ModeBaseline}
	got, errs := be.ExtractBatch(draws, initV)
	if errs[2] == nil {
		t.Fatal("impossible draw did not fail")
	}
	single := Extractor{Mode: ModeBaseline}
	if _, err := single.Extract(draws[2], initV[2]); err == nil {
		t.Fatal("impossible draw succeeded on the single path")
	} else if errs[2].Error() != err.Error() {
		t.Errorf("error text mismatch:\n  batch:  %v\n  single: %v", errs[2], err)
	}
	if !strings.Contains(errs[2].Error(), "charge sharing") {
		t.Errorf("failure not attributed to the right phase: %v", errs[2])
	}
	for i, q := range draws {
		if i == 2 {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy draw %d failed: %v", i, errs[i])
		}
		want, err := single.Extract(q, initV[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("draw %d: batch-with-failure %+v != single %+v", i, got[i], want)
		}
	}
}

func TestBatchExtractRejectsMixedSolverControls(t *testing.T) {
	p := Default()
	draws := perturbedDraws(p, 3, 5)
	draws[1].CheckStride = p.CheckStride + 3
	initV := []float64{1, 1, 1}
	be := &BatchExtractor{Mode: ModeBaseline}
	_, errs := be.ExtractBatch(draws, initV)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("draw %d: mixed CheckStride accepted", i)
		}
		if !strings.Contains(err.Error(), "solver controls") {
			t.Fatalf("draw %d: unexpected error %v", i, err)
		}
	}
}

// TestCheckStrideOvershootBound pins the documented stop-condition
// semantics (Params.CheckStride): stepping is unaffected by the stride, so
// a stride of N reports the same monotone threshold crossing quantised up
// by at most (N−1)·Dt — on the interpreted, compiled and batched paths
// alike, including draws whose crossings land in different chunks of one
// batch (a draw finishing mid-batch parks its lane while the rest run on).
func TestCheckStrideOvershootBound(t *testing.T) {
	p := Default()
	draws := perturbedDraws(p, 4, 59)
	initV := make([]float64, len(draws))
	for i, q := range draws {
		initV[i] = q.RestoreFrac * q.VDD
	}

	// tSense of each draw at stride 1 — the unquantised crossing reference.
	sense1 := make([]float64, len(draws))
	for i, q := range draws {
		q.CheckStride = 1
		s, err := Build(q, ModeBaseline)
		if err != nil {
			t.Fatal(err)
		}
		s.InitData(true, initV[i])
		act, err := s.Activate(nil)
		if err != nil || !act.OK {
			t.Fatalf("draw %d stride-1 activation: %v (ok=%v)", i, err, act.OK)
		}
		sense1[i] = act.TSense
	}

	for _, stride := range []int{1, 2, 4, 8, 16} {
		bound := float64(stride-1) * p.Dt
		for _, interpreted := range []bool{false, true} {
			for i, q := range draws {
				q.CheckStride = stride
				q.Interpreted = interpreted
				s, err := Build(q, ModeBaseline)
				if err != nil {
					t.Fatal(err)
				}
				s.InitData(true, initV[i])
				act, err := s.Activate(nil)
				if err != nil || !act.OK {
					t.Fatalf("draw %d stride %d: %v (ok=%v)", i, stride, err, act.OK)
				}
				over := act.TSense - sense1[i]
				if over < 0 || over > bound+1e-18 {
					t.Errorf("draw %d stride %d interpreted=%v: overshoot %v outside [0, %v]",
						i, stride, interpreted, over, bound)
				}
			}
		}

		// Batched path at the same stride: the per-lane crossings must be
		// bitwise the single path's stride-N crossings (and therefore obey
		// the same bound). The perturbed draws cross in different chunks,
		// so some lanes park mid-batch while others keep stepping.
		strided := make([]Params, len(draws))
		for i := range draws {
			strided[i] = draws[i]
			strided[i].CheckStride = stride
		}
		be := &BatchExtractor{Mode: ModeBaseline}
		if err := be.prepare(strided); err != nil {
			t.Fatal(err)
		}
		for i, s := range be.act {
			s.InitData(true, initV[i])
		}
		errs := make([]error, len(strided))
		acts := make([]ActResult, len(strided))
		newGroup(be.lanes[0], be.act, errs, stride).activate(acts)
		for i, q := range strided {
			if errs[i] != nil {
				t.Fatalf("batched draw %d stride %d: %v", i, stride, errs[i])
			}
			// Bitwise equality with the single path at the same stride.
			s, err := Build(q, ModeBaseline)
			if err != nil {
				t.Fatal(err)
			}
			s.InitData(true, initV[i])
			act, err := s.Activate(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := acts[i].TSense; got != act.TSense {
				t.Errorf("draw %d stride %d: batched tSense %v != single %v", i, stride, got, act.TSense)
			}
			if over := acts[i].TSense - sense1[i]; over < 0 || over > float64(stride-1)*p.Dt+1e-18 {
				t.Errorf("draw %d stride %d: batched overshoot %v outside [0, %v]",
					i, stride, over, float64(stride-1)*p.Dt)
			}
		}
	}
}
