package main

import (
	"fmt"

	"clrdram/internal/circuit"
	"clrdram/internal/spice"
)

// compiledSetter is Circuit.SetCompiled, which the ROADMAP slates for
// deletion along with the single-draw compiled kernel; without it the step
// probe times whatever single-circuit Step remains.
type compiledSetter interface{ SetCompiled(bool) }

// circuitLayers fills the traced report of the circuit workload: the engine
// pool's utilization over the untraced operations, then the spice and
// circuit probes.
func (b *bench) circuitLayers(tr *tracer, rep *report, plain []opResult) error {
	rep.set("engine.utilization", median(pick(plain, func(r opResult) float64 {
		return r.runCPU / (r.runWall * float64(b.workers))
	})))
	if err := b.probeSpice(tr, rep); err != nil {
		return err
	}
	return b.probeCircuit(tr, rep)
}

// probeSpice times the two extraction paths a table build uses, on the
// seed's own Monte Carlo draws: Extractor.Extract one draw at a time, and
// BatchExtractor.ExtractBatch at the default batch width, divided by the
// width. Each extractor first runs untimed once, as a pooled one has.
func (b *bench) probeSpice(tr *tracer, rep *report) error {
	bt := newBatchTimer(tr, "spice", "probe.spice")
	defer bt.done()
	p := spice.Default()
	k := b.sz.batchWidth
	var single, batched []float64
	for _, m := range circuitModes {
		e := &spice.Extractor{Mode: m}
		var err error
		extract := func(i int) {
			q := montecarloDraw(p, b.seed, i)
			if _, xerr := e.Extract(q, q.RestoreFrac*q.VDD); xerr != nil && err == nil {
				err = fmt.Errorf("spice.Extractor.Extract %v draw %d: %w", m, i, xerr)
			}
		}
		bt.untimed("spice", "Extractor.Extract (warm-up)", func() { extract(1) })
		d := bt.time("Extractor.Extract", func() int64 {
			for i := 0; i < b.sz.spiceDraws; i++ {
				extract(2 + i)
			}
			return int64(b.sz.spiceDraws)
		})
		if err != nil {
			return err
		}
		single = append(single, float64(d.Nanoseconds())/1e6/float64(b.sz.spiceDraws))

		be := &spice.BatchExtractor{Mode: m}
		batch := func(first int) {
			draws := make([]spice.Params, k)
			initV := make([]float64, k)
			for i := range draws {
				draws[i] = montecarloDraw(p, b.seed, first+i)
				initV[i] = draws[i].RestoreFrac * draws[i].VDD
			}
			_, errs := be.ExtractBatch(draws, initV)
			for i, xerr := range errs {
				if xerr != nil && err == nil {
					err = fmt.Errorf("spice.BatchExtractor.ExtractBatch %v draw %d: %w", m, first+i, xerr)
				}
			}
		}
		bt.untimed("spice", "BatchExtractor.ExtractBatch (warm-up)", func() { batch(1) })
		d = bt.time("BatchExtractor.ExtractBatch", func() int64 {
			batch(1 + k)
			return int64(k)
		})
		if err != nil {
			return err
		}
		batched = append(batched, float64(d.Nanoseconds())/1e6/float64(k))
	}
	rep.set("spice.ms_per_draw", median(single))
	rep.set("spice.ms_per_batched_draw", median(batched))
	return nil
}

// probeCircuit times the two stepping kernels on high-performance subarrays
// brought into their sensed state by one activation: the compiled
// Circuit.Step on one netlist, and CompileBatch + Batch.Step over one
// default-width batch of the seed's draws, divided by the width.
func (b *bench) probeCircuit(tr *tracer, rep *report) error {
	bt := newBatchTimer(tr, "circuit", "probe.circuit")
	defer bt.done()
	p := spice.Default()
	var err error
	activated := func(i int) *spice.Subarray {
		q := montecarloDraw(p, b.seed, i)
		s, berr := spice.Build(q, spice.ModeHighPerf)
		if berr == nil {
			s.InitData(true, q.RestoreFrac*q.VDD)
			_, berr = s.Activate(nil)
		}
		if berr != nil && err == nil {
			err = fmt.Errorf("spice high-performance subarray, draw %d: %w", i, berr)
		}
		return s
	}

	var one *circuit.Circuit
	bt.untimed("spice", "Build+Activate", func() { one = activated(1).Circuit() })
	if err != nil {
		return err
	}
	if sc, ok := any(one).(compiledSetter); ok {
		sc.SetCompiled(true)
	} else {
		rep.notes = append(rep.notes, "circuit.Circuit has no SetCompiled: circuit.ns_per_step times the remaining Step")
	}
	d := bt.time("Circuit.Step", func() int64 {
		for n := 0; n < b.sz.circuitSteps; n++ {
			if serr := one.Step(p.Dt); serr != nil && err == nil {
				err = fmt.Errorf("circuit.Circuit.Step: %w", serr)
			}
		}
		return int64(b.sz.circuitSteps)
	})
	if err != nil {
		return err
	}
	rep.set("circuit.ns_per_step", float64(d.Nanoseconds())/float64(b.sz.circuitSteps))

	k := b.sz.batchWidth
	lanes := make([]*circuit.Circuit, k)
	bt.untimed("spice", "Build+Activate", func() {
		for i := range lanes {
			lanes[i] = activated(2 + i).Circuit()
		}
	})
	if err != nil {
		return err
	}
	var batch *circuit.Batch
	bt.time("circuit.CompileBatch", func() int64 {
		batch, err = circuit.CompileBatch(lanes)
		return 1
	})
	if err != nil {
		return fmt.Errorf("circuit.CompileBatch: %w", err)
	}
	d = bt.time("Batch.Step", func() int64 {
		for n := 0; n < b.sz.batchSteps; n++ {
			batch.Step(p.Dt)
		}
		return int64(b.sz.batchSteps * k)
	})
	for i := 0; i < k; i++ {
		if lerr := batch.Err(i); lerr != nil {
			return fmt.Errorf("circuit.Batch.Step lane %d: %w", i, lerr)
		}
	}
	rep.set("circuit.ns_per_lane_step", float64(d.Nanoseconds())/float64(b.sz.batchSteps*k))
	return nil
}
