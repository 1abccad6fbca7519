package spice

import (
	"testing"

	"clrdram/internal/circuit"
)

// Benchmarks behind make bench-circuit. "Seed config" means the solver
// configuration the repo shipped before the compiled kernel: interpreted
// stepping with the stop condition checked every step (CheckStride 1).

func benchSubarrayStep(b *testing.B, compiled bool) {
	p := Default()
	s, err := Build(p, ModeBaseline)
	if err != nil {
		b.Fatal(err)
	}
	c := s.Circuit()
	c.SetCompiled(compiled)
	s.InitData(true, p.VDD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubarrayStepCompiled measures the raw kernel step on the full
// baseline netlist (the Monte Carlo hot loop spends ~96% of its time here).
func BenchmarkSubarrayStepCompiled(b *testing.B)    { benchSubarrayStep(b, true) }
func BenchmarkSubarrayStepInterpreted(b *testing.B) { benchSubarrayStep(b, false) }

func benchSubarrayStepBatch(b *testing.B, k int) {
	p := Default()
	lanes := make([]*circuit.Circuit, k)
	for i := range lanes {
		s, err := Build(p, ModeBaseline)
		if err != nil {
			b.Fatal(err)
		}
		s.InitData(true, p.VDD)
		lanes[i] = s.Circuit()
	}
	bt, err := circuit.CompileBatch(lanes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Step(1e-12)
	}
	b.StopTimer()
	for i := 0; i < k; i++ {
		if err := bt.Err(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "lanesteps/s")
}

// BenchmarkSubarrayStepBatch* measure the batched kernel's per-lane step
// cost on the same netlist — lanesteps/s here over K× steps/s above is the
// pure kernel gain, before any Monte Carlo orchestration.
func BenchmarkSubarrayStepBatch4(b *testing.B)  { benchSubarrayStepBatch(b, 4) }
func BenchmarkSubarrayStepBatch8(b *testing.B)  { benchSubarrayStepBatch(b, 8) }
func BenchmarkSubarrayStepBatch16(b *testing.B) { benchSubarrayStepBatch(b, 16) }

func benchExtract(b *testing.B, interpreted bool, stride int) {
	p := Default()
	p.Interpreted = interpreted
	p.CheckStride = stride
	ex := Extractor{Mode: ModeHighPerf}
	initV := p.RestoreFrac * p.VDD
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(p, initV); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtract measures one full activate+precharge+write extraction on
// a reused (Reparam'd) high-performance netlist — the per-draw cost of a
// Monte Carlo iteration.
func BenchmarkExtract(b *testing.B)           { benchExtract(b, false, Default().CheckStride) }
func BenchmarkExtractSeedConfig(b *testing.B) { benchExtract(b, true, 1) }

func benchMonteCarlo(b *testing.B, seedConfig bool) {
	p := Default()
	if seedConfig {
		p.Interpreted = true
		p.CheckStride = 1
	}
	const draws = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarlo(p, ModeHighPerf, draws, 9, 0.05); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(draws)*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
}

// BenchmarkMonteCarlo measures the parallel campaign end to end (64 draws
// per op, all workers) in the shipped configuration (batched, width
// DefaultBatchWidth) vs the seed config (interpreted, stride 1, unbatched).
func BenchmarkMonteCarlo(b *testing.B)           { benchMonteCarlo(b, false) }
func BenchmarkMonteCarloSeedConfig(b *testing.B) { benchMonteCarlo(b, true) }

func benchMonteCarloBatch(b *testing.B, k int) {
	p := Default()
	p.BatchWidth = k
	const draws = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarlo(p, ModeHighPerf, draws, 9, 0.05); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(draws)*float64(b.N)/b.Elapsed().Seconds(), "draws/s")
}

// BenchmarkMonteCarloBatch* sweep the campaign over batch widths (the
// EXPERIMENTS.md W3 table; BENCH_circuit.json's batch section measures the
// same sweep via cmd/circuitsim -bench). Width 1 routes through the
// one-lane stepper over the compiled single-circuit kernel.
func BenchmarkMonteCarloBatch1(b *testing.B)  { benchMonteCarloBatch(b, 1) }
func BenchmarkMonteCarloBatch4(b *testing.B)  { benchMonteCarloBatch(b, 4) }
func BenchmarkMonteCarloBatch8(b *testing.B)  { benchMonteCarloBatch(b, 8) }
func BenchmarkMonteCarloBatch16(b *testing.B) { benchMonteCarloBatch(b, 16) }
