// Command circuitsim regenerates the paper's circuit-level results from the
// transient subarray model (the SPICE substitute):
//
//	circuitsim -table1            Table 1: timing parameters per mode
//	circuitsim -fig7              Figure 7: activate+precharge waveforms
//	circuitsim -fig8              Figure 8: restoration tail / early term.
//	circuitsim -fig11             Figure 11: tRCD/tRAS vs refresh window
//	circuitsim -emit-timings      machine-readable timing table
//	circuitsim -bench             solver benchmarks → BENCH_circuit.json
//
// -iters controls the Monte Carlo draw count (paper: 10000; default 2000 —
// the compiled stepping kernel made the paper-scale methodology the
// default). -ckcompile=off pins the interpreted stepping path and
// -ckbatch N sets the Monte Carlo batch width (N draws stepped together
// through the batched kernel; 1 = unbatched). Results are bit-identical
// under every combination — see make ckdiff. -cpuprofile/-memprofile
// write pprof profiles of whatever work the other flags select.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"clrdram/internal/spice"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		fig7       = flag.Bool("fig7", false, "regenerate Figure 7 waveforms")
		fig8       = flag.Bool("fig8", false, "regenerate Figure 8 (early termination)")
		fig11      = flag.Bool("fig11", false, "regenerate Figure 11 (refresh window sweep)")
		emit       = flag.Bool("emit-timings", false, "print the timing table in Go-literal form")
		bench      = flag.Bool("bench", false, "run the circuit-solver benchmarks")
		benchOut   = flag.String("bench-out", "BENCH_circuit.json", "write -bench results as JSON to this file ('-' for stdout)")
		iters      = flag.Int("iters", 2000, "Monte Carlo iterations per mode")
		seed       = flag.Int64("seed", 1, "Monte Carlo seed")
		ckMode     = flag.String("ckcompile", "on", "compiled stepping kernel, on or off (results are bit-identical either way)")
		ckBatch    = flag.Int("ckbatch", spice.DefaultBatchWidth, "Monte Carlo batch width: draws stepped together through the batched kernel (1 = unbatched; results are bit-identical at every width)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	if !*table1 && !*fig7 && !*fig8 && !*fig11 && !*emit && !*bench {
		*table1 = true
	}
	p := spice.Default()
	switch *ckMode {
	case "on", "true", "1":
	case "off", "false", "0":
		p.Interpreted = true
	default:
		fatal(fmt.Errorf("-ckcompile must be on or off, got %q", *ckMode))
	}
	if *ckBatch < 1 {
		fatal(fmt.Errorf("-ckbatch must be >= 1, got %d", *ckBatch))
	}
	p.BatchWidth = *ckBatch
	topts := spice.TableOptions{Iterations: *iters, Seed: *seed}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}()

	if *bench {
		runBench(p, *benchOut)
	}

	if *table1 || *emit {
		tab, err := spice.BuildTimingTable(p, topts)
		if err != nil {
			fatal(err)
		}
		if *table1 {
			fmt.Printf("Table 1 — timing parameters (circuit simulation, %d MC iterations)\n\n", *iters)
			fmt.Printf("%-10s %9s %9s %14s %13s %10s\n", "Timing", "Baseline", "Max-Cap", "HP (w/o E.T.)", "HP (w/ E.T.)", "Reduction")
			row := func(name string, b, m, hn, he float64) {
				fmt.Printf("%-10s %9.1f %9.1f %14.1f %13.1f %9.1f%%\n", name, b, m, hn, he, (1-he/b)*100)
			}
			row("tRCD (ns)", tab.Baseline.RCD, tab.MaxCap.RCD, tab.HighPerfNoET.RCD, tab.HighPerfET.RCD)
			row("tRAS (ns)", tab.Baseline.RAS, tab.MaxCap.RAS, tab.HighPerfNoET.RAS, tab.HighPerfET.RAS)
			row("tRP  (ns)", tab.Baseline.RP, tab.MaxCap.RP, tab.HighPerfNoET.RP, tab.HighPerfET.RP)
			row("tWR  (ns)", tab.Baseline.WR, tab.MaxCap.WR, tab.HighPerfNoET.WR, tab.HighPerfET.WR)
			fmt.Printf("\nPaper reference reductions: tRCD 60.1%%, tRAS 64.2%%, tRP 46.4%%, tWR 35.2%%\n")
		}
		if *emit {
			fmt.Printf("// TimingTable (source: %s)\n", tab.Source)
			fmt.Printf("Baseline:     %+v\n", tab.Baseline)
			fmt.Printf("MaxCap:       %+v\n", tab.MaxCap)
			fmt.Printf("HighPerfNoET: %+v\n", tab.HighPerfNoET)
			fmt.Printf("HighPerfET:   %+v\n", tab.HighPerfET)
			for _, pt := range tab.REFWCurve {
				fmt.Printf("REFW %3.0f ms: tRCD=%.2f tRAS=%.2f\n", pt.Ms, pt.RCD, pt.RAS)
			}
		}
	}

	if *fig7 {
		fmt.Println("Figure 7 — SPICE-equivalent waveforms of activation + precharge")
		for _, mode := range []spice.Mode{spice.ModeBaseline, spice.ModeHighPerf} {
			samples, raw, err := spice.WaveformActPre(p, mode, 0.25e-9)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\n# %s (raw: tRCD=%.2fns tRAS=%.2fns tRP=%.2fns)\n", mode,
				raw.RCD*1e9, raw.RASFull*1e9, raw.RP*1e9)
			fmt.Println("t(ns)\tbitline\tbitline_bar\tcell\tcell_bar")
			for _, s := range samples {
				fmt.Printf("%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n", s.T*1e9, s.BL, s.BLB, s.Cell, s.CellB)
			}
		}
	}

	if *fig8 {
		fmt.Println("Figure 8 — charge-restoration tail and early termination (high-performance mode)")
		s, err := spice.Build(p, spice.ModeHighPerf)
		if err != nil {
			fatal(err)
		}
		rec := &spice.Recorder{Every: 0.1e-9}
		s.InitData(true, p.RestoreFrac*p.VDD)
		act, err := s.Activate(rec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# tRAS full restoration: %.2f ns; with early termination: %.2f ns (%.1f%% saved)\n",
			act.TRASFull*1e9, act.TRASET*1e9, (1-act.TRASET/act.TRASFull)*100)
		fmt.Println("t(ns)\tcharged_cell\tdischarged_cell\tbitline\tbitline_bar")
		for _, smp := range rec.Samples {
			fmt.Printf("%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n", smp.T*1e9, smp.Cell, smp.CellB, smp.BL, smp.BLB)
		}
	}

	if *fig11 {
		fmt.Println("Figure 11 — tRCD and tRAS vs refresh window (high-performance mode)")
		tab, err := spice.BuildTimingTable(p, topts)
		if err != nil {
			fatal(err)
		}
		fmt.Println("tREFW(ms)\ttRCD(ns)\ttRAS(ns)")
		for _, pt := range tab.REFWCurve {
			fmt.Printf("%.0f\t%.2f\t%.2f\n", pt.Ms, pt.RCD, pt.RAS)
		}
		fmt.Printf("# sweep ends at %.0f ms (sensing limit; paper: ≈204 ms)\n", tab.MaxREFWms())
	}
}

// benchReport is the BENCH_circuit.json schema (v2), regenerable with
// `make bench-circuit`: the compiled-kernel PR's wall-clock evidence plus
// the batched kernel's draws/s sweep over batch widths. The step, extract
// and monte_carlo sections are measured exactly as in schema v1 (the
// monte_carlo campaign runs unbatched, width 1) so v1→v2 numbers stay
// comparable; v2 adds the batch section.
type benchReport struct {
	Schema string `json:"schema"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`

	Step struct {
		CompiledNsPerOp     float64 `json:"compiled_ns_per_op"`
		InterpretedNsPerOp  float64 `json:"interpreted_ns_per_op"`
		CompiledStepsPerS   float64 `json:"compiled_steps_per_s"`
		CompiledAllocsPerOp int64   `json:"compiled_allocs_per_op"`
		Speedup             float64 `json:"speedup"`
	} `json:"step"`

	Extract struct {
		CompiledNsPerOp   float64 `json:"compiled_ns_per_op"`
		SeedConfigNsPerOp float64 `json:"seed_config_ns_per_op"`
		Speedup           float64 `json:"speedup"`
	} `json:"extract"`

	MonteCarlo struct {
		CompiledDrawsPerS   float64 `json:"compiled_draws_per_s"`
		SeedConfigDrawsPerS float64 `json:"seed_config_draws_per_s"`
		Speedup             float64 `json:"speedup"`
	} `json:"monte_carlo"`

	// Batch sweeps the Monte Carlo campaign over batch widths. K=1 routes
	// through the same single-instance path as monte_carlo's compiled run;
	// speedup_vs_k1 is each width's draws/s over that width-1 entry.
	Batch []batchBenchEntry `json:"batch"`
}

// batchBenchEntry is one batch-width measurement in benchReport.Batch.
type batchBenchEntry struct {
	K           int     `json:"k"`
	DrawsPerS   float64 `json:"draws_per_s"`
	SpeedupVsK1 float64 `json:"speedup_vs_k1"`
}

// runBench measures the stepping kernel against the configuration the repo
// shipped before it (interpreted loop, stop condition checked every step)
// at three granularities — one raw circuit step, one full extraction on a
// reused netlist, and a parallel 64-draw Monte Carlo campaign — then
// sweeps the campaign over batch widths 1..64 (interleaved rounds,
// per-width minima).
func runBench(p spice.Params, out string) {
	step := func(compiled bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			s, err := spice.Build(p, spice.ModeBaseline)
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
		})
	}
	extract := func(q spice.Params) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			ex := spice.Extractor{Mode: spice.ModeHighPerf}
			initV := q.RestoreFrac * q.VDD
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Extract(q, initV); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	const mcDraws = 64
	mc := func(q spice.Params) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spice.MonteCarlo(q, spice.ModeHighPerf, mcDraws, 9, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	seedCfg := p
	seedCfg.Interpreted = true
	seedCfg.CheckStride = 1
	seedCfg.BatchWidth = 1
	compiledCfg := p
	compiledCfg.Interpreted = false
	compiledCfg.BatchWidth = 1

	var rep benchReport
	rep.Schema = "clrdram/bench-circuit/v2"
	rep.GOOS, rep.GOARCH, rep.CPUs = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()

	fmt.Fprintln(os.Stderr, "circuitsim: benchmarking raw step...")
	sc, si := step(true), step(false)
	rep.Step.CompiledNsPerOp = float64(sc.NsPerOp())
	rep.Step.InterpretedNsPerOp = float64(si.NsPerOp())
	rep.Step.CompiledStepsPerS = 1e9 / float64(sc.NsPerOp())
	rep.Step.CompiledAllocsPerOp = sc.AllocsPerOp()
	rep.Step.Speedup = float64(si.NsPerOp()) / float64(sc.NsPerOp())

	fmt.Fprintln(os.Stderr, "circuitsim: benchmarking extraction...")
	ec, es := extract(compiledCfg), extract(seedCfg)
	rep.Extract.CompiledNsPerOp = float64(ec.NsPerOp())
	rep.Extract.SeedConfigNsPerOp = float64(es.NsPerOp())
	rep.Extract.Speedup = float64(es.NsPerOp()) / float64(ec.NsPerOp())

	fmt.Fprintln(os.Stderr, "circuitsim: benchmarking Monte Carlo campaign...")
	mcc, mcs := mc(compiledCfg), mc(seedCfg)
	rep.MonteCarlo.CompiledDrawsPerS = mcDraws * 1e9 / float64(mcc.NsPerOp())
	rep.MonteCarlo.SeedConfigDrawsPerS = mcDraws * 1e9 / float64(mcs.NsPerOp())
	rep.MonteCarlo.Speedup = float64(mcs.NsPerOp()) / float64(mcc.NsPerOp())

	// The batch sweep interleaves the widths round-robin and keeps each
	// width's MINIMUM campaign time across the rounds. Interleaving
	// exposes every width to the same conditions within each round
	// (measuring one width to completion before the next lets
	// machine-speed drift masquerade as a width effect), and on a shared
	// host timing noise is one-sided — interference only ever inflates a
	// round — so the per-width minimum is the least-interference estimate
	// of each width's true campaign cost, and ratios of minima the
	// cleanest speedup estimate.
	widths := []int{1, 4, 8, 16, 32, 64}
	const batchRounds = 13
	fmt.Fprintf(os.Stderr, "circuitsim: benchmarking batched Monte Carlo, K in %v...\n", widths)
	batchTimes := make([][]float64, len(widths))
	for r := 0; r < batchRounds; r++ {
		for wi, k := range widths {
			q := compiledCfg
			q.BatchWidth = k
			start := time.Now()
			if _, err := spice.MonteCarlo(q, spice.ModeHighPerf, mcDraws, 9, 0.05); err != nil {
				fatal(err)
			}
			batchTimes[wi] = append(batchTimes[wi], time.Since(start).Seconds())
		}
	}
	for wi, k := range widths {
		sort.Float64s(batchTimes[wi])
		best := batchTimes[wi][0]
		rep.Batch = append(rep.Batch, batchBenchEntry{K: k, DrawsPerS: mcDraws / best})
	}
	for i := range rep.Batch {
		rep.Batch[i].SpeedupVsK1 = rep.Batch[i].DrawsPerS / rep.Batch[0].DrawsPerS
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fatal(err)
	}
	if out != "-" {
		fmt.Printf("(wrote %s: step %.0f→%.0f ns [%.2fx], extract %.2f→%.2f ms [%.2fx], MC %.0f→%.0f draws/s [%.2fx])\n",
			out,
			rep.Step.InterpretedNsPerOp, rep.Step.CompiledNsPerOp, rep.Step.Speedup,
			rep.Extract.SeedConfigNsPerOp/1e6, rep.Extract.CompiledNsPerOp/1e6, rep.Extract.Speedup,
			rep.MonteCarlo.SeedConfigDrawsPerS, rep.MonteCarlo.CompiledDrawsPerS, rep.MonteCarlo.Speedup)
		fmt.Printf("(batch draws/s:")
		for _, e := range rep.Batch {
			fmt.Printf(" K=%d %.0f [%.2fx]", e.K, e.DrawsPerS, e.SpeedupVsK1)
		}
		fmt.Println(")")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "circuitsim:", err)
	os.Exit(1)
}
