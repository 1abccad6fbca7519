// Package sim wires the full evaluated system together — trace-driven cores
// (internal/cpu), a shared LLC (internal/cache), the memory controller
// (internal/mem) over a CLR-DRAM or baseline DDR4 device (internal/dram,
// internal/core), and the energy meter (internal/power) — and provides the
// experiment drivers that regenerate the paper's system-level results
// (Figures 12-15).
//
// The simulation methodology follows §8.1: profiling-based hot-page
// assignment, cache warmup by fast-forwarding, per-core instruction targets,
// IPC for single-core runs and weighted speedup (against alone-runs on the
// baseline) for multi-core runs, with all averages reported as geometric
// means by the experiment layer.
package sim

import (
	"errors"
	"fmt"
	"math"

	"clrdram/internal/cache"
	"clrdram/internal/cpu"
	"clrdram/internal/dram"
	"clrdram/internal/engine"
	"clrdram/internal/mem"
	"clrdram/internal/power"
)

// Options configures one simulation run. The fields tagged `json:"-"` move
// only wall-clock, scheduling or what is reported, never a simulated value;
// every other field namespaces the checkpoint shards (shardStore).
type Options struct {
	// TargetInstructions per core (the paper uses 200 M; scale down for
	// fast experimentation — results are normalized so shapes survive).
	TargetInstructions uint64
	// WarmupRecords are trace records streamed through the LLC untimed
	// before measurement (the paper fast-forwards 100 M instructions).
	WarmupRecords int
	// ProfileRecords are trace records used to rank pages by access count
	// for the hot-page mapping (§8.1).
	ProfileRecords int
	// Seed drives every generator in the run.
	Seed int64
	// CPUClockGHz is the core clock (Table 2: 4 GHz).
	CPUClockGHz float64
	// Channels is the number of independent memory channels, each a full
	// single-rank device with its own controller (Table 2 uses 1; more is
	// this library's extension of the paper's configuration).
	Channels int
	// MaxCPUCycles bounds a run defensively; 0 derives a generous bound
	// from TargetInstructions.
	MaxCPUCycles int64

	// Workers bounds the experiment-level parallelism of the sweep specs
	// (Fig12Spec, Fig13Spec, Fig15Spec, ComparisonSpec): independent
	// simulations fan out across this many goroutines. 0 means
	// runtime.GOMAXPROCS(0). Results are bit-identical at every worker
	// count (every run is internally seeded from Options.Seed; see
	// internal/engine).
	Workers int `json:"-"`
	// Progress, when non-nil, receives (done, total) after each completed
	// experiment shard. Calls are serialized; a sweep reports one shard per
	// distinct row (a workload set run under every configuration it needs:
	// a profile, a mix, or a profile's alone baseline).
	Progress engine.Progress `json:"-"`
	// Checkpoint, when non-nil, persists completed experiment shards as
	// JSON so an interrupted sweep resumes instead of restarting. A shard is
	// keyed by its row's content inside a namespace of every result-shaping
	// option, so a store can be shared across sweeps and differently-
	// configured runs.
	Checkpoint *engine.Store `json:"-"`
	// SharedPool, when non-nil, replaces the per-sweep pool built from
	// Workers: the sweep's rows fan out on the given pool instead. Hand the same engine.NewSharedPool to many concurrent Run
	// calls — as the clrserve job server does — to bound their total
	// fan-out with one machine-wide budget. Progress and Timer still attach
	// per-invocation (the hooks ride on a copy; the concurrency budget is
	// shared through it).
	SharedPool *engine.Pool `json:"-"`

	// CollectStats enables the observability layer: every System gets its
	// own metrics.Registry (queue-occupancy histograms, timing-stall
	// breakdown, per-epoch IPC series) and Result.Report is populated with
	// a structured RunReport. Off by default; the always-on counters
	// (row-buffer outcomes, command counts, Result.BankUtil) are collected
	// regardless. Reports are deterministic — identical at any Workers
	// count for the same Seed — except for their Timing section.
	CollectStats bool `json:"-"`
	// StatsEpochCycles is the per-epoch IPC series interval in CPU cycles
	// (default 100 000). Only meaningful with CollectStats.
	StatsEpochCycles int64
	// Timer, when non-nil, is attached to the experiment pool so sweep
	// drivers accumulate per-task wall-clock and worker-utilization
	// measurements (engine.TimerSummary). Wall-clock readings are the one
	// deliberately non-deterministic output; report canonicalization
	// strips them.
	Timer *engine.Timer `json:"-"`

	// FastForward selects the next-event fast-forward policy: FFOn (the
	// zero value) plans skips on every eligible cycle, FFOff forces the
	// per-cycle reference loop. Both are bit-identical by contract (enforced
	// by the differential test suite) — the mode only moves wall-clock.
	FastForward FFMode `json:"-"`

	// Standard selects the DRAM device — geometry, clock and timing package
	// — by name (dram.StandardNames; "" means dram.DefaultStandard, the
	// paper's ddr4-2400 device). It is the only device selector.
	// Fixed-timing standards (lpddr4-3200) reject CLR-enabled
	// configurations at NewSystem time.
	Standard string

	CPU cpu.Config
	LLC cache.Config
	Mem mem.Config
	IDD power.IDD
}

// FFMode selects the fast-forward planning policy (Options.FastForward).
type FFMode int

const (
	// FFOn plans a next-event skip on every eligible cycle (fastforward.go)
	// — the default.
	FFOn FFMode = iota
	// FFOff forces the per-cycle reference loop.
	FFOff
)

// String returns the CLI spelling of the mode.
func (m FFMode) String() string {
	switch m {
	case FFOn:
		return "on"
	case FFOff:
		return "off"
	}
	return fmt.Sprintf("FFMode(%d)", int(m))
}

// ParseFFMode parses the CLI spellings of FFMode: "on" (or "", "always",
// "true", "1") and "off" (or "false", "0").
func ParseFFMode(s string) (FFMode, error) {
	switch s {
	case "on", "", "always", "true", "1":
		return FFOn, nil
	case "off", "false", "0":
		return FFOff, nil
	}
	return FFOn, fmt.Errorf("sim: unknown fast-forward mode %q (want on|off)", s)
}

// DefaultOptions returns the paper's Table 2 system scaled to a fast default
// instruction budget.
func DefaultOptions() Options {
	return Options{
		TargetInstructions: 500_000,
		WarmupRecords:      20_000,
		ProfileRecords:     50_000,
		Seed:               1,
		CPUClockGHz:        4.0,
		CPU:                cpu.Config{}.Defaults(),
		LLC:                cache.Config{}.Defaults(),
		Mem:                mem.Config{},
		IDD:                power.Default16Gb(),
	}
}

// withDefaults normalises zero fields.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.TargetInstructions == 0 {
		o.TargetInstructions = d.TargetInstructions
	}
	if o.WarmupRecords == 0 {
		o.WarmupRecords = d.WarmupRecords
	}
	if o.ProfileRecords == 0 {
		o.ProfileRecords = d.ProfileRecords
	}
	if o.CPUClockGHz == 0 {
		o.CPUClockGHz = d.CPUClockGHz
	}
	if o.Channels == 0 {
		o.Channels = 1
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Standard == "" {
		o.Standard = dram.DefaultStandard
	}
	if o.IDD.VDD == 0 {
		o.IDD = d.IDD
	}
	o.CPU = o.CPU.Defaults()
	o.LLC = o.LLC.Defaults()
	if o.StatsEpochCycles == 0 {
		o.StatsEpochCycles = 100_000
	}
	if o.MaxCPUCycles == 0 {
		// Worst plausible CPI ≈ 400 for a pathological all-miss trace.
		// Guard against overflow for phase-driven systems that set an
		// effectively-unbounded instruction target and pace via RunFor.
		const maxBound = int64(1) << 62
		if o.TargetInstructions > uint64(maxBound/400) {
			o.MaxCPUCycles = maxBound
		} else {
			o.MaxCPUCycles = int64(o.TargetInstructions) * 400
		}
	}
	return o
}

// validate checks defaulted options before prewarm builds anything from
// them: a finite, positive core clock, at least one channel, core widths,
// window and MSHR count of at least 1, and an LLC cache.Config.Validate
// accepts. Each rejection is an *OptionsError naming the field.
func (o Options) validate() error {
	bad := func(field, format string, args ...any) error {
		return &OptionsError{Field: field, Detail: fmt.Sprintf(format, args...)}
	}
	if !(o.CPUClockGHz > 0) || math.IsInf(o.CPUClockGHz, 1) {
		return bad("CPUClockGHz", "%v, want a finite value > 0", o.CPUClockGHz)
	}
	if o.Channels < 1 {
		return bad("Channels", "%d, want ≥ 1", o.Channels)
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"IssueWidth", o.CPU.IssueWidth}, {"RetireWidth", o.CPU.RetireWidth},
		{"WindowSize", o.CPU.WindowSize}, {"MSHRs", o.CPU.MSHRs},
	} {
		if f.v < 1 {
			return bad("CPU."+f.name, "%d, want ≥ 1", f.v)
		}
	}
	var ce *cache.ConfigError
	if errors.As(o.LLC.Validate(), &ce) {
		return bad("LLC."+ce.Field, "%s", ce.Detail)
	}
	return nil
}
