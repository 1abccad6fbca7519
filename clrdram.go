// Package clrdram is a full reimplementation and reproduction study of
// CLR-DRAM (Capacity-Latency-Reconfigurable DRAM), Luo et al., ISCA 2020:
// a DRAM architecture in which any row can be dynamically switched between
// max-capacity mode (full density) and high-performance mode (half density,
// 35-65% lower tRCD/tRAS/tWR/tRP and cheaper refresh, by coupling adjacent
// cells and their sense amplifiers).
//
// The module contains everything the paper's evaluation needs, implemented
// from scratch in pure Go:
//
//   - a transient circuit simulator and DRAM subarray models that replace
//     the paper's SPICE methodology (Table 1, Figures 7, 8 and 11);
//   - a cycle-accurate DDR4 device + memory controller + trace-driven CPU
//   - LLC stack that replaces Ramulator (Figures 12-14);
//   - a DRAMPower-style energy model (Figures 12-15);
//   - 71 workload generators standing in for the paper's SPEC/TPC/
//     MediaBench traces and in-house synthetic traces;
//   - the CLR-DRAM mechanism itself: per-row mode management, profiling-
//     guided hot-page mapping, heterogeneous refresh, and the capacity and
//     chip-area overhead models.
//
// This package is the public facade: it re-exports the user-facing types of
// the internal packages. Executables in cmd/ regenerate every table and
// figure; examples/ shows typical library usage; EXPERIMENTS.md records
// paper-versus-measured results.
package clrdram

import (
	"clrdram/internal/core"
	"clrdram/internal/dram"
	"clrdram/internal/mem"
	"clrdram/internal/sim"
	"clrdram/internal/spice"
	"clrdram/internal/workload"
)

// Config selects a CLR-DRAM operating point (HP row fraction, refresh
// window, early termination). The zero value is the unmodified DDR4
// baseline.
type Config = core.Config

// Baseline returns the unmodified-DDR4 configuration.
func Baseline() Config { return core.Baseline() }

// CLR returns a CLR-DRAM configuration with hpFraction of all rows in
// high-performance mode and the paper's defaults (64 ms refresh window,
// early termination on).
func CLR(hpFraction float64) Config { return core.CLR(hpFraction) }

// TimingTable holds the paper's Table 1 / Figure 11 timing parameters.
type TimingTable = core.TimingTable

// DefaultTable returns the paper's published timing numbers.
func DefaultTable() *TimingTable { return core.DefaultTable() }

// AreaModel computes the chip-area overhead of CLR-DRAM (§6.2).
type AreaModel = core.AreaModel

// DefaultAreaModel reproduces the paper's conservative ≤3.2% estimate.
func DefaultAreaModel() AreaModel { return core.DefaultAreaModel() }

// CapacityFactor returns the usable storage fraction at an HP row fraction
// (§6.1: an X% high-performance configuration forfeits X/2% of capacity).
func CapacityFactor(hpFraction float64) float64 { return core.CapacityFactor(hpFraction) }

// RowModeMap tracks arbitrary per-row operating modes (one bit per row).
type RowModeMap = core.RowModeMap

// Mode is a row operating mode: max-capacity or high-performance.
type Mode = dram.Mode

// The two CLR-DRAM row modes.
const (
	ModeMaxCap   = dram.ModeMaxCap
	ModeHighPerf = dram.ModeHighPerf
)

// NewRowModeMap creates a map over banks × rows with every row in the given
// initial mode.
func NewRowModeMap(banks, rows int, initial Mode) *RowModeMap {
	return core.NewRowModeMap(banks, rows, initial)
}

// Profile is a synthetic workload generator; Mix is a four-core bundle.
type (
	Profile = workload.Profile
	Mix     = workload.Mix
)

// Workloads returns the full 71-entry single-core evaluation set (41
// application-like + 30 synthetic profiles, §8.1).
func Workloads() []Profile { return workload.All() }

// RealWorkloads returns the 41 application-like profiles.
func RealWorkloads() []Profile { return workload.Real() }

// SyntheticWorkloads returns the 30 in-house random/stream traces.
func SyntheticWorkloads() []Profile { return workload.Synthetic() }

// WorkloadByName looks up a profile from Workloads().
func WorkloadByName(name string) (Profile, bool) { return workload.ByName(name) }

// MixGroups builds the paper's multiprogrammed L/M/H mix groups.
func MixGroups(seed int64, perGroup int) map[string][]Mix {
	return workload.MixGroups(seed, perGroup)
}

// Options configures a system-level simulation run; Result is its outcome.
type (
	Options = sim.Options
	Result  = sim.Result
)

// DefaultOptions returns the paper's Table 2 system with fast defaults.
func DefaultOptions() Options { return sim.DefaultOptions() }

// Spec names one unit of simulation work for Run; Outcome is its result.
// Option adjusts the run's Options functionally; RunError is the typed
// error every run path returns on failure.
type (
	Spec     = sim.Spec
	Outcome  = sim.Outcome
	Option   = sim.Option
	RunError = sim.RunError
)

// Run is the unified, context-aware entry point behind every simulation
// driver. Build the spec with SingleSpec/MixSpec/..., compose options with
// the With* functions, and cancel via ctx.
var Run = sim.Run

// Spec constructors for Run.
var (
	SingleSpec     = sim.SingleSpec
	MixSpec        = sim.MixSpec
	Fig12Spec      = sim.Fig12Spec
	Fig13Spec      = sim.Fig13Spec
	Fig15Spec      = sim.Fig15Spec
	ComparisonSpec = sim.ComparisonSpec
)

// Functional options for Run.
var (
	WithOptions     = sim.WithOptions
	WithWorkers     = sim.WithWorkers
	WithStats       = sim.WithStats
	WithFastForward = sim.WithFastForward
)

// Memory-system composition (DESIGN.md §14): the controller's four roles —
// DRAM standard, command scheduler, row-buffer policy and address mapper —
// are independently swappable behind small interfaces, resolved by registry
// name through MemConfig / Options.Standard (or the -scheduler, -rowpolicy,
// -mapper and -standard CLI flags).
type (
	// MemConfig configures the memory controller, including the Scheduler,
	// RowPolicy and Mapper registry names (empty strings mean the paper's
	// defaults). Set it on Options.Mem.
	MemConfig = mem.Config
	// Scheduler picks the next DRAM command for a request queue
	// (frfcfs-cap, frfcfs, fcfs).
	Scheduler = mem.Scheduler
	// RowPolicy decides when to proactively close open rows
	// (timeout, open, closed, hitcount).
	RowPolicy = mem.RowPolicy
	// AddressMapper translates raw physical addresses to DRAM coordinates.
	AddressMapper = mem.AddressMapper
	// Standard is a DRAM standard: device geometry plus its timing package
	// (ddr4-2400, lpddr4-3200). Select one via Options.Standard.
	Standard = dram.Standard
)

// Default registry names for the four composable roles.
const (
	DefaultScheduler = mem.DefaultScheduler
	DefaultRowPolicy = mem.DefaultRowPolicy
	DefaultMapper    = mem.DefaultMapper
	DefaultStandard  = dram.DefaultStandard
)

// Registry lookups (name -> instance) and catalogues for the composable
// memory-system roles. The Register* functions extend the registries with
// custom implementations; the *Names functions list what is registered.
var (
	NewScheduler     = mem.NewScheduler
	NewRowPolicy     = mem.NewRowPolicy
	NewAddressMapper = mem.NewAddressMapper
	NewStandard      = dram.NewStandard

	RegisterScheduler = mem.RegisterScheduler
	RegisterRowPolicy = mem.RegisterRowPolicy
	RegisterMapper    = mem.RegisterMapper
	RegisterStandard  = dram.RegisterStandard

	SchedulerNames = mem.SchedulerNames
	RowPolicyNames = mem.RowPolicyNames
	MapperNames    = mem.MapperNames
	StandardNames  = dram.StandardNames
)

// CircuitParams parameterises the circuit-level subarray model.
type CircuitParams = spice.Params

// DefaultCircuitParams returns the calibrated nominal circuit parameters.
func DefaultCircuitParams() CircuitParams { return spice.Default() }

// TimingTableOptions configures BuildTimingTableOpts: Monte Carlo draw
// count, seed, sigma, refresh-sweep step and worker count. The solver
// controls — CircuitParams.Interpreted, which pins the interpreted stepping
// path instead of the compiled kernel, and CircuitParams.BatchWidth — are
// set on the params (the paths and widths are bit-identical, see
// `make ckdiff`).
type TimingTableOptions = spice.TableOptions

// BuildTimingTable regenerates the Table 1 / Figure 11 timing table from
// the circuit model (Monte Carlo worst case, calibrated to the paper's
// baseline column).
func BuildTimingTable(p CircuitParams, iterations int, seed int64) (*TimingTable, error) {
	return BuildTimingTableOpts(p, TimingTableOptions{Iterations: iterations, Seed: seed})
}

// BuildTimingTableOpts is BuildTimingTable with the full option set
// exposed.
func BuildTimingTableOpts(p CircuitParams, opts TimingTableOptions) (*TimingTable, error) {
	return spice.BuildTimingTable(p, opts)
}

// Advisor recommends CLR-DRAM operating points from workload demand
// (§6.1's capacity-vs-latency decision, implemented as a policy).
type Advisor = core.Advisor

// Demand describes a workload's memory requirements for the Advisor.
type Demand = core.Demand

// NewAdvisor returns an advisor for a device of the given total capacity.
func NewAdvisor(totalCapacityBytes uint64) Advisor {
	return core.DefaultAdvisor(totalCapacityBytes)
}

// RedundancyMap models spare row/column repair with the high-performance
// pairing constraint (§6.3).
type RedundancyMap = core.RedundancyMap

// NewRedundancyMap creates a repair map for one bank.
func NewRedundancyMap(rows, columns, spareRows, spareColumns int) (*RedundancyMap, error) {
	return core.NewRedundancyMap(rows, columns, spareRows, spareColumns)
}

// ControlSignals models the per-bank ISO1/ISO2 isolation-transistor control
// of §3.3 (Figure 6).
type ControlSignals = core.ControlSignals

// SignalsFor returns the control-signal levels that configure a row of the
// given subarray for max-capacity or high-performance operation.
func SignalsFor(subarray int, highPerformance bool) ControlSignals {
	mode := dram.ModeMaxCap
	if highPerformance {
		mode = dram.ModeHighPerf
	}
	return core.SignalsFor(subarray, mode)
}

// System is a live simulation instance supporting phase-driven execution
// (RunFor) and dynamic reconfiguration (Reconfigure) — the paper's headline
// capability exercised at run time, including the data-migration cost.
type System = sim.System

// ReconfigureResult reports the cost of one dynamic reconfiguration.
type ReconfigureResult = sim.ReconfigureResult

// NewSystem builds a simulation instance for phase-driven use. Set
// Options.TargetInstructions very high and pace execution with RunFor.
func NewSystem(profiles []Profile, cfg Config, opts Options) (*System, error) {
	return sim.NewSystem(profiles, cfg, opts)
}

// RetentionProfile bins rows by retention time for retention-aware refresh
// (RAIDR adapted to CLR-DRAM, §5.2 extension).
type RetentionProfile = core.RetentionProfile

// RAIDRProfile returns the RAIDR-reported retention distribution.
func RAIDRProfile() RetentionProfile { return core.RAIDRProfile() }
