package clrdram

// One benchmark per paper table and figure (see DESIGN.md §4 for the
// experiment index), plus ablation benches for the design choices the paper
// calls out and microbenchmarks of the simulation substrates.
//
// Figure benches run scaled-down configurations (the shapes survive
// scaling; absolute instruction counts are flag-free to keep `go test
// -bench=.` self-contained). Custom metrics report the reproduced quantity
// (speedup, reduction) alongside ns/op.

import (
	"context"
	"testing"

	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/engine"
	"clrdram/internal/mem"
	"clrdram/internal/sim"
	"clrdram/internal/spice"
	"clrdram/internal/workload"
)

// benchOpts is the scaled-down system configuration for figure benches.
func benchOpts() sim.Options {
	o := sim.DefaultOptions()
	o.TargetInstructions = 60_000
	o.WarmupRecords = 30_000
	o.ProfileRecords = 5_000
	return o
}

func benchProfile(name string) workload.Profile {
	p, ok := workload.ByName(name)
	if !ok {
		panic("unknown workload " + name)
	}
	return p
}

// --- Table 1: circuit-level timing parameters ---

func BenchmarkTable1Timings(b *testing.B) {
	p := spice.Default()
	for i := 0; i < b.N; i++ {
		tab, err := spice.BuildTimingTable(p, spice.TableOptions{Iterations: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric((1-tab.HighPerfET.RCD/tab.Baseline.RCD)*100, "tRCD-reduction-%")
			b.ReportMetric((1-tab.HighPerfET.RAS/tab.Baseline.RAS)*100, "tRAS-reduction-%")
		}
	}
}

// --- Figure 7: activation + precharge waveforms ---

func BenchmarkFig7Waveforms(b *testing.B) {
	p := spice.Default()
	for i := 0; i < b.N; i++ {
		for _, mode := range []spice.Mode{spice.ModeBaseline, spice.ModeHighPerf} {
			if _, _, err := spice.WaveformActPre(p, mode, 0.25e-9); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 8: early termination of charge restoration ---

func BenchmarkFig8EarlyTermination(b *testing.B) {
	p := spice.Default()
	for i := 0; i < b.N; i++ {
		raw, err := spice.Extract(p, spice.ModeHighPerf, p.RestoreFrac*p.VDD)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric((1-raw.RASET/raw.RASFull)*100, "ET-tRAS-saving-%")
		}
	}
}

// --- Figure 11: refresh window vs activation latency ---

func BenchmarkFig11RefreshSweep(b *testing.B) {
	p := spice.Default()
	for i := 0; i < b.N; i++ {
		pts, err := spice.REFWSweep(p, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].Ms, "max-tREFW-ms")
		}
	}
}

// --- Figure 12: single-core normalized IPC and DRAM energy ---

func BenchmarkFig12SingleCore(b *testing.B) {
	profiles := []workload.Profile{
		benchProfile("429.mcf-like"),
		benchProfile("random_00"),
		benchProfile("stream_00"),
	}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.Fig12Spec(profiles), opts)
		if err != nil {
			b.Fatal(err)
		}
		res := *out.Fig12
		if i == 0 {
			b.ReportMetric(res.Rows[0].NormIPC[4], "mcf-speedup-100%")
			b.ReportMetric(res.Rows[0].NormEnergy[4], "mcf-energy-100%")
		}
	}
}

// --- Figure 13: multi-core weighted speedup and energy ---

func BenchmarkFig13MultiCore(b *testing.B) {
	groups := map[string][]workload.Mix{
		"H": {{Name: "H00", Profiles: [4]workload.Profile{
			benchProfile("429.mcf-like"), benchProfile("random_00"),
			benchProfile("stream_00"), benchProfile("462.libquantum-like"),
		}}},
	}
	opts := benchOpts()
	opts.TargetInstructions = 30_000
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.Fig13Spec(groups), opts)
		if err != nil {
			b.Fatal(err)
		}
		res := *out.Fig13
		if i == 0 {
			b.ReportMetric(res.GMeanWS[4], "H-group-WS-100%")
		}
	}
}

// --- Figure 14: DRAM power ---

func BenchmarkFig14Power(b *testing.B) {
	p := benchProfile("random_00")
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.SingleSpec(p, core.Baseline()), opts)
		if err != nil {
			b.Fatal(err)
		}
		base := out.Single
		out, err = sim.Run(context.Background(), sim.SingleSpec(p, core.CLR(1.0)), opts)
		if err != nil {
			b.Fatal(err)
		}
		clr := out.Single
		if i == 0 {
			b.ReportMetric(clr.PowerMW/base.PowerMW, "norm-power-100%")
		}
	}
}

// --- Figure 15: refresh interval sensitivity ---

func BenchmarkFig15RefreshInterval(b *testing.B) {
	profiles := []workload.Profile{benchProfile("random_00")}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.Fig15Spec(profiles, []float64{1.0}), opts)
		if err != nil {
			b.Fatal(err)
		}
		rows := out.Fig15
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric((1-last.NormRefresh[0])*100, "CLR-194-refreshE-saving-%")
		}
	}
}

// --- §6.2: area overhead ---

func BenchmarkAreaOverhead(b *testing.B) {
	m := core.DefaultAreaModel()
	var total float64
	for i := 0; i < b.N; i++ {
		_, _, total = m.Overhead()
	}
	b.ReportMetric(total*100, "area-overhead-%")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationEarlyTermination compares high-performance mode with and
// without early termination of charge restoration (Table 1's two HP
// columns at the system level).
func BenchmarkAblationEarlyTermination(b *testing.B) {
	p := benchProfile("random_00")
	opts := benchOpts()
	noET := core.CLR(1.0)
	noET.EarlyTermination = false
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.SingleSpec(p, core.CLR(1.0)), opts)
		if err != nil {
			b.Fatal(err)
		}
		with := out.Single
		out, err = sim.Run(context.Background(), sim.SingleSpec(p, noET), opts)
		if err != nil {
			b.Fatal(err)
		}
		without := out.Single
		if i == 0 {
			b.ReportMetric(with.PerCore[0].IPC()/without.PerCore[0].IPC(), "ET-speedup")
		}
	}
}

// BenchmarkAblationRowHitCap sweeps the FR-FCFS-Cap row-hit cap.
func BenchmarkAblationRowHitCap(b *testing.B) {
	p := benchProfile("random_00")
	for _, cap := range []int{1, 4, 16} {
		b.Run(bn("cap", cap), func(b *testing.B) {
			opts := benchOpts()
			opts.Mem.RowHitCap = cap
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(context.Background(), sim.SingleSpec(p, core.CLR(1.0)), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkDeviceACTPRECycle(b *testing.B) {
	cfg := dram.Standard16Gb()
	cfg.Timings[dram.ModeDefault] = dram.DDR4BaselineNS().ToCycles(cfg.ClockNS)
	d := dram.NewDevice(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act := dram.Command{Kind: dram.KindACT, Bank: i % 16, Row: i & 0xFFFF}
		for !d.CanIssue(act) {
			d.Tick()
		}
		d.Issue(act)
		pre := dram.Command{Kind: dram.KindPRE, Bank: i % 16}
		for !d.CanIssue(pre) {
			d.Tick()
		}
		d.Issue(pre)
	}
}

func BenchmarkControllerTick(b *testing.B) {
	cfg := dram.Standard16Gb()
	cfg.Timings[dram.ModeDefault] = dram.DDR4BaselineNS().ToCycles(cfg.ClockNS)
	dev := dram.NewDevice(cfg)
	ctrl, err := mem.NewController(dev, mem.Config{})
	if err != nil {
		b.Fatal(err)
	}
	addr := uint64(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		a := addr % (1 << 30)
		// row:bg:bank:col over 64-byte lines, 128 columns and 16 banks;
		// rows past capacity wrap.
		line := a >> 6
		da := mem.Address{Bank: int(line >> 7 & 15), Row: int(line >> 11 & uint64(cfg.Rows-1)), Column: int(line & 127)}
		ctrl.EnqueueDecoded(&mem.Request{Addr: a, Write: i%4 == 0}, da)
		ctrl.Tick()
	}
}

func BenchmarkLLCAccess(b *testing.B) {
	c := cache.New(cache.Config{})
	addr := uint64(98765)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		a := addr % (16 << 20)
		if c.Access(a, false, nil) == cache.Miss {
			c.Fill(c.LineAddr(a))
		}
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p := benchProfile("429.mcf-like")
	rd := p.NewReader(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSystem times a system's set-up: profiling each workload for
// its hot pages, building the page mapping and warming the LLC with
// 200,000 records per core (the standing benchmark's warm-up), for one
// memory-bound core and for the four-core mcf+lbm+gamess×2 mix.
func BenchmarkNewSystem(b *testing.B) {
	for _, set := range []struct {
		name     string
		profiles []string
	}{
		{"mcf", []string{"429.mcf-like"}},
		{"mix4", []string{"429.mcf-like", "470.lbm-like", "416.gamess-like", "416.gamess-like"}},
	} {
		b.Run(set.name, func(b *testing.B) {
			var profiles []workload.Profile
			for _, name := range set.profiles {
				profiles = append(profiles, benchProfile(name))
			}
			opts := sim.DefaultOptions()
			opts.WarmupRecords = 200_000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.NewSystem(profiles, core.CLR(0.5), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCircuitStep(b *testing.B) {
	p := spice.Default()
	s, err := spice.Build(p, spice.ModeHighPerf)
	if err != nil {
		b.Fatal(err)
	}
	s.InitData(true, p.RestoreFrac*p.VDD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Circuit().Step(p.Dt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndSimulatedInstructions(b *testing.B) {
	// Reports simulator throughput in simulated instructions per second.
	p := benchProfile("stream_00")
	opts := benchOpts()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.SingleSpec(p, core.CLR(1.0)), opts)
		if err != nil {
			b.Fatal(err)
		}
		instr += out.Single.PerCore[0].Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

// --- internal/sim: next-event fast-forward ---
//
// Mode pairs run the identical workload with fast-forward on and off
// (results are bit-identical by construction — see
// TestFastForwardIdentityAllProfiles). The compute-bound profile is the
// headline case: long pure-bubble stretches collapse into jumps, so
// fast-forward should run it well over 1.5× faster than the per-cycle
// loop. The memory-intensive profile bounds the other end, where horizons
// are short and fast-forward must hold parity with the ticked loop. cmd/ffbench
// runs the same comparison with interleaved rounds and CPU-time minima
// (`make bench-ff`) — these benchmarks are the `go test -bench` view of it.

func benchFastForward(b *testing.B, name string, mode sim.FFMode) {
	p := benchProfile(name)
	opts := benchOpts()
	// A longer run than the figure benches: the quantity under test is the
	// steady-state cycle loop, so keep the fixed setup cost (trace profiling
	// and cache warmup) small relative to the simulated region.
	opts.TargetInstructions = 1_000_000
	opts.WarmupRecords = 2_000
	opts.ProfileRecords = 2_000
	opts.FastForward = mode
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.SingleSpec(p, core.CLR(0.5)), opts)
		if err != nil {
			b.Fatal(err)
		}
		instr += out.Single.PerCore[0].Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

func BenchmarkFastForwardComputeBoundOn(b *testing.B) {
	benchFastForward(b, "416.gamess-like", sim.FFOn)
}

func BenchmarkFastForwardComputeBoundOff(b *testing.B) {
	benchFastForward(b, "416.gamess-like", sim.FFOff)
}

func BenchmarkFastForwardMemIntensiveOn(b *testing.B) {
	benchFastForward(b, "429.mcf-like", sim.FFOn)
}

func BenchmarkFastForwardMemIntensiveOff(b *testing.B) {
	benchFastForward(b, "429.mcf-like", sim.FFOff)
}

// bn formats a sub-benchmark name.
func bn(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- internal/engine: serial vs parallel experiment execution ---
//
// The serial/parallel pairs below share identical work (and, by the
// engine's determinism contract, identical results); BENCH_*.json diffs
// capture the speedup trajectory as core counts grow. At 4+ cores the
// parallel variants should run ≥ 2× faster; on a single-core host they
// degenerate to the serial cost plus negligible pool overhead.

const benchMCIters = 8

func benchMonteCarlo(b *testing.B, workers int) {
	p := spice.Default()
	for i := 0; i < b.N; i++ {
		if _, err := spice.MonteCarloPool(context.Background(), engine.NewPool(workers),
			p, spice.ModeHighPerf, benchMCIters, 1, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloSerial(b *testing.B)   { benchMonteCarlo(b, 1) }
func BenchmarkMonteCarloParallel(b *testing.B) { benchMonteCarlo(b, 0) } // 0 = GOMAXPROCS

func benchFig12Workers(b *testing.B, workers int) {
	profiles := []workload.Profile{
		benchProfile("429.mcf-like"),
		benchProfile("random_00"),
		benchProfile("stream_00"),
	}
	opts := benchOpts()
	opts.Workers = workers
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), sim.Fig12Spec(profiles), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Serial(b *testing.B)   { benchFig12Workers(b, 1) }
func BenchmarkFig12Parallel(b *testing.B) { benchFig12Workers(b, 0) } // 0 = GOMAXPROCS

// --- internal/metrics: observability overhead ---
//
// StatsOff/StatsOn run the identical Fig. 12 sweep with the metrics
// registry disabled and enabled; comparing their ns/op bounds the cost of
// the observability layer (target: < 5% — the hot-path instruments are
// plain counter increments and one histogram bucket index per cycle).

func benchFig12Stats(b *testing.B, collect bool) {
	profiles := []workload.Profile{
		benchProfile("429.mcf-like"),
		benchProfile("random_00"),
		benchProfile("stream_00"),
	}
	opts := benchOpts()
	opts.Workers = 1
	opts.CollectStats = collect
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), sim.Fig12Spec(profiles), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12StatsOff(b *testing.B) { benchFig12Stats(b, false) }
func BenchmarkFig12StatsOn(b *testing.B)  { benchFig12Stats(b, true) }

// --- §9: related-design comparison ---

// BenchmarkSection9Comparison runs the quantitative version of the paper's
// related-work discussion: CLR-DRAM vs Twin-Cell vs MCR-DRAM vs TL-DRAM.
func BenchmarkSection9Comparison(b *testing.B) {
	profiles := []workload.Profile{benchProfile("random_00")}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		out, err := sim.Run(context.Background(), sim.ComparisonSpec(profiles, 1.0), opts)
		if err != nil {
			b.Fatal(err)
		}
		rows := out.Comparison
		if i == 0 {
			for _, r := range rows {
				if r.Design == core.DesignCLRDRAM {
					b.ReportMetric(r.NormIPC, "CLR-norm-IPC")
				}
				if r.Design == core.DesignTwinCell {
					b.ReportMetric(r.NormIPC, "TwinCell-norm-IPC")
				}
			}
		}
	}
}

// BenchmarkAblationRefreshPostponement compares the paper's conservative
// refresh (a due REF preempts immediately) against DDR4's postponement
// mechanism (defer up to 8 intervals while traffic is pending).
func BenchmarkAblationRefreshPostponement(b *testing.B) {
	p := benchProfile("random_00")
	for _, postpone := range []int{0, 8} {
		b.Run(bn("postpone", postpone), func(b *testing.B) {
			opts := benchOpts()
			opts.Mem.MaxPostponedRefresh = postpone
			var ipc float64
			for i := 0; i < b.N; i++ {
				out, err := sim.Run(context.Background(), sim.SingleSpec(p, core.CLR(1.0)), opts)
				if err != nil {
					b.Fatal(err)
				}
				ipc = out.Single.PerCore[0].IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkDynamicReconfiguration measures the cost of a live 0%→100%→0%
// round trip, including the stop-the-world page migration.
func BenchmarkDynamicReconfiguration(b *testing.B) {
	opts := benchOpts()
	opts.TargetInstructions = 1 << 62
	p := workload.Profile{
		Name: "bench-dyn", Pattern: workload.PatternRandom,
		FootprintPages: 1024, BubbleMean: 6, WriteFrac: 0.25,
	}
	s, err := sim.NewSystem([]workload.Profile{p}, core.CLR(0), opts)
	if err != nil {
		b.Fatal(err)
	}
	s.RunFor(5_000)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		up, err := s.Reconfigure(core.CLR(1.0))
		if err != nil {
			b.Fatal(err)
		}
		down, err := s.Reconfigure(core.CLR(0))
		if err != nil {
			b.Fatal(err)
		}
		cycles = up.MigrationCycles + down.MigrationCycles
	}
	b.ReportMetric(float64(cycles), "migration-cpu-cycles/roundtrip")
}
