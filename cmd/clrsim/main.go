// Command clrsim runs one system-level simulation: a single workload or a
// four-workload mix on the paper's Table 2 system, under a chosen CLR-DRAM
// configuration, and reports performance, DRAM energy/power and row-buffer
// statistics.
//
//	clrsim -workload 429.mcf-like -hp 1.0
//	clrsim -mix 429.mcf-like,470.lbm-like,random_00,stream_00 -hp 0.25
//	clrsim -workload random_00 -hp 1.0 -refw 194 -instructions 2000000
//	clrsim -trace my.trace -hp 0.5          # replay a tracegen file
//	clrsim -workload random_00 -channels 2  # dual-channel system
//	clrsim -workload 429.mcf-like -stats    # print the observability report
//	clrsim -workload 429.mcf-like -stats-out report.json
//	clrsim -list
//
// -stats collects the full observability layer (per-bank command counts,
// timing-stall breakdown, queue-occupancy histograms, per-epoch IPC) and
// prints it human-readably; -stats-out writes the same data as a RunReport
// JSON document ("-" for stdout). See OBSERVABILITY.md for the schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"clrdram/internal/cli"
	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/mem"
	"clrdram/internal/sim"
	"clrdram/internal/trace"
	"clrdram/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "", "single-core workload name (see -list)")
		mixStr   = flag.String("mix", "", "comma-separated list of 4 workload names")
		hp       = flag.Float64("hp", 0, "fraction of rows in high-performance mode (0..1)")
		refw     = flag.Float64("refw", 64, "high-performance refresh window in ms")
		noET     = flag.Bool("no-early-termination", false, "disable early termination of charge restoration")
		basel    = flag.Bool("baseline", false, "run the unmodified DDR4 baseline instead of CLR-DRAM")
		instrs   = flag.Uint64("instructions", 500_000, "instructions per core")
		warmup   = flag.Int("warmup", 100_000, "warmup trace records per core")
		seed     = flag.Int64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list available workloads and exit")
		compare  = flag.Bool("compare", false, "also run the baseline and print normalized results")
		traceF   = flag.String("trace", "", "run a trace file (tracegen format) instead of a named workload")
		channels = flag.Int("channels", 1, "number of memory channels")
		statsF   = flag.Bool("stats", false, "collect the observability report and print it after the run")
		statsOut = flag.String("stats-out", "", "write the observability report as JSON to this file ('-' for stdout; implies stats collection)")
		ffMode   = flag.String("fastforward", "on", "event-driven cycle skipping, on or off (results are bit-identical either way)")
		schedF   = flag.String("scheduler", "", "memory scheduler: "+strings.Join(mem.SchedulerNames(), "|")+" (default "+mem.DefaultScheduler+")")
		policyF  = flag.String("rowpolicy", "", "row-buffer policy: "+strings.Join(mem.RowPolicyNames(), "|")+" (default "+mem.DefaultRowPolicy+")")
		stdF     = flag.String("standard", "", "DRAM standard: "+strings.Join(dram.StandardNames(), "|")+" (default "+dram.DefaultStandard+"; fixed-timing standards require -baseline)")
	)
	flag.Parse()

	if *list {
		for _, p := range workload.All() {
			class := "non-intensive"
			if p.MemIntensive {
				class = "memory-intensive"
			}
			fmt.Printf("%-24s %-8s footprint=%6.1fMiB %s\n",
				p.Name, p.Pattern, float64(p.FootprintBytes())/(1<<20), class)
		}
		return
	}

	cfg := core.CLR(*hp)
	cfg.REFWms = *refw
	cfg.EarlyTermination = !*noET
	if *basel {
		cfg = core.Baseline()
	}
	opts := sim.DefaultOptions()
	opts.TargetInstructions = *instrs
	opts.WarmupRecords = *warmup
	opts.Seed = *seed
	opts.Channels = *channels
	opts.CollectStats = *statsF || *statsOut != ""
	opts.Mem.Scheduler = *schedF
	opts.Mem.RowPolicy = *policyF
	opts.Standard = *stdF
	ff, err := sim.ParseFFMode(*ffMode)
	if err != nil {
		fatal(fmt.Errorf("-fastforward: %w", err))
	}
	opts.FastForward = ff

	// Ctrl-C / SIGTERM cancels the run cleanly through the context-aware
	// API, and the process exits with the conventional 128+signum code
	// (130 for SIGINT) via fatal's context.Canceled handling.
	ctx, code, stop := cli.SignalContext(context.Background())
	sigCode = code
	defer stop()

	run := func(c core.Config) sim.Result {
		var spec sim.Spec
		switch {
		case *mixStr != "":
			names := strings.Split(*mixStr, ",")
			if len(names) != 4 {
				fatal(fmt.Errorf("-mix needs exactly 4 names, got %d", len(names)))
			}
			var m workload.Mix
			m.Name = "cli"
			for i, n := range names {
				p, ok := workload.ByName(strings.TrimSpace(n))
				if !ok {
					fatal(fmt.Errorf("unknown workload %q", n))
				}
				m.Profiles[i] = p
			}
			spec = sim.MixSpec(m, c)
		case *traceF != "":
			f, ferr := os.Open(*traceF)
			if ferr != nil {
				fatal(ferr)
			}
			records, perr := trace.Parse(f)
			f.Close()
			if perr != nil {
				fatal(perr)
			}
			p, werr := workload.FromRecords(*traceF, records)
			if werr != nil {
				fatal(werr)
			}
			spec = sim.SingleSpec(p, c)
		case *name != "":
			p, ok := workload.ByName(*name)
			if !ok {
				fatal(fmt.Errorf("unknown workload %q (try -list)", *name))
			}
			spec = sim.SingleSpec(p, c)
		default:
			fatal(fmt.Errorf("need -workload, -mix or -trace (or -list)"))
		}
		out, err := sim.Run(ctx, spec, opts)
		if err != nil {
			fatal(err)
		}
		return *out.Single
	}

	res := run(cfg)
	if res.Report != nil {
		if *statsF {
			if err := res.Report.WriteText(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if *statsOut != "" {
			writeReport(*statsOut, func(w *os.File) error { return res.Report.WriteJSON(w) })
			if *statsOut == "-" {
				// Keep stdout a single valid JSON document for piping.
				return
			}
		}
	}
	print := func(label string, r sim.Result) {
		fmt.Printf("== %s (%s) ==\n", label, r.CLR)
		for i, c := range r.PerCore {
			fmt.Printf("core %d: IPC=%.3f MPKI=%.2f instructions=%d\n", i, c.IPC(), c.MPKI(), c.Instructions)
		}
		e := r.Energy
		fmt.Printf("cycles: cpu=%d dram=%d  (timed out: %v)\n", r.CPUCycles, r.DRAMCycles, r.TimedOut)
		fmt.Printf("DRAM energy: total=%.2f µJ (act/pre %.2f, rd/wr %.2f, io %.2f, refresh %.2f, background %.2f)\n",
			e.Total()/1e6, e.ActPre/1e6, e.ReadWrite/1e6, e.IO/1e6, e.Refresh/1e6, e.Background/1e6)
		fmt.Printf("DRAM power: %.1f mW\n", r.PowerMW)
		rb := r.Mem.RowBuffer
		fmt.Printf("row buffer: %.1f%% hits, %.1f%% misses, %.1f%% conflicts (of %d)\n",
			pct(rb.Hits, rb.Total()), pct(rb.Misses, rb.Total()), pct(rb.Conflicts, rb.Total()), rb.Total())
		fmt.Printf("commands: reads=%d writes=%d refreshes=%d timeout-closes=%d\n\n",
			r.Mem.ReadsServed, r.Mem.WritesServed, r.Mem.Refreshes, r.Mem.TimeoutCloses)
	}
	print("run", res)

	if *compare && !*basel {
		base := run(core.Baseline())
		print("baseline", base)
		fmt.Println("== normalized to baseline ==")
		for i := range res.PerCore {
			fmt.Printf("core %d speedup: %.3f\n", i, res.PerCore[i].IPC()/base.PerCore[i].IPC())
		}
		fmt.Printf("DRAM energy: %.3f   DRAM power: %.3f\n",
			res.Energy.Total()/base.Energy.Total(), res.PowerMW/base.PowerMW)
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// writeReport writes a report to the given path, with "-" meaning stdout.
func writeReport(path string, fn func(*os.File) error) {
	if path == "-" {
		if err := fn(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}

// sigCode reports the exit code of a received signal (set by main once the
// handler is installed); fatal exits with it when err is the cancellation
// that signal caused, and 1 otherwise.
var sigCode func() int

func fatal(err error) {
	cli.Exit("clrsim", err, sigCode)
}
