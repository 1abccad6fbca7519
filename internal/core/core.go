// Package core implements CLR-DRAM (Capacity-Latency-Reconfigurable DRAM),
// the contribution of Luo et al., ISCA 2020: row-granularity dynamic
// reconfiguration of a DRAM device between max-capacity mode (full density,
// baseline-like latency) and high-performance mode (half density, sharply
// reduced tRCD/tRAS/tWR/tRP and cheaper refresh, achieved by coupling every
// two adjacent cells and their two sense amplifiers).
//
// The package provides:
//
//   - operating-mode management: RowModeMap / ThresholdModeSource implement
//     dram.RowModeSource so the device applies per-row timing (paper §3.2);
//   - the CLR timing tables: Table 1 defaults, the early-termination option
//     (§3.5) and the refresh-window sensitivity curve (§3.6, Figure 11;
//     regenerable from the circuit model in internal/spice);
//   - profiling-guided page mapping: assign the X% most-accessed pages of a
//     workload to high-performance rows (§8.1 methodology), with the
//     half-capacity accounting of §6.1;
//   - the heterogeneous refresh plan (§3.6, §5.2);
//   - the chip-area overhead model (§6.2) and capacity model (§6.1).
//
// Config is the top-level knob set; Config.Build produces everything the
// system layer (package sim) needs to run a CLR-DRAM system.
package core

import (
	"fmt"

	"clrdram/internal/dram"
	"clrdram/internal/mem"
)

// Config selects one CLR-DRAM operating point, mirroring the paper's
// evaluation axes.
type Config struct {
	// Enabled selects CLR-DRAM hardware. False models the unmodified DDR4
	// baseline (single timing set, standard refresh).
	Enabled bool
	// HPFraction is the fraction of all DRAM rows configured to operate in
	// high-performance mode (the paper evaluates 0, 0.25, 0.50, 0.75, 1.0).
	// The remaining rows operate in max-capacity mode.
	HPFraction float64
	// REFWms is the refresh window of high-performance rows in
	// milliseconds; 64 is the DDR4 default, the paper studies up to 194
	// (§8.5). Max-capacity rows always use 64 ms.
	REFWms float64
	// EarlyTermination applies early termination of charge restoration
	// (§3.5). The paper always enables it in system-level evaluation.
	EarlyTermination bool
	// Table supplies the timing parameters; zero value means DefaultTable()
	// (the paper's Table 1 / Figure 11 numbers).
	Table *TimingTable
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.HPFraction < 0 || c.HPFraction > 1 {
		return fmt.Errorf("core: HPFraction %v outside [0,1]", c.HPFraction)
	}
	if c.Enabled {
		if c.REFWms < 64 {
			return fmt.Errorf("core: REFWms %v below the 64 ms DDR4 floor", c.REFWms)
		}
		tab := c.Table
		if tab == nil {
			tab = DefaultTable()
		}
		if c.REFWms > tab.MaxREFWms() {
			return fmt.Errorf("core: REFWms %v exceeds the sensing limit %v ms (Fig. 11 sweep)",
				c.REFWms, tab.MaxREFWms())
		}
	}
	if !c.Enabled && c.HPFraction != 0 {
		return fmt.Errorf("core: baseline (Enabled=false) cannot have HP rows")
	}
	return nil
}

// Baseline returns the unmodified-DDR4 configuration.
func Baseline() Config { return Config{} }

// CLR returns a CLR-DRAM configuration with the paper's defaults (64 ms
// refresh window, early termination on).
func CLR(hpFraction float64) Config {
	return Config{Enabled: true, HPFraction: hpFraction, REFWms: 64, EarlyTermination: true}
}

// Build derives the device timing sets, row-mode source and refresh streams
// for a device with the given geometry. This is the hardware-configuration
// half of CLR-DRAM; page mapping (the software half) is built separately via
// BuildMapping once the workload's hot pages are known.
func (c Config) Build(devCfg dram.Config) (dram.Config, []mem.RefreshStream, error) {
	if err := c.Validate(); err != nil {
		return dram.Config{}, nil, err
	}
	tab := c.Table
	if tab == nil {
		tab = DefaultTable()
	}
	clock := devCfg.ClockNS
	// The paper's ddr4-2400 device leaves Timings[ModeDefault] zero for the
	// Table 1 baseline column. A fixed-timing standard (lpddr4-3200)
	// prescribes the set itself and has no SPICE model behind it, so it
	// runs the baseline only: per-row mode timings would be fiction.
	if devCfg.Timings[dram.ModeDefault] == (dram.TimingSet{}) {
		devCfg.Timings[dram.ModeDefault] = tab.Baseline.ToCycles(clock)
	} else if c.Enabled {
		return dram.Config{}, nil, fmt.Errorf("core: the device has a fixed timing table and cannot model CLR-DRAM row modes; run it with the baseline configuration")
	}
	if !c.Enabled {
		devCfg.ModeOf = dram.FixedMode(dram.ModeDefault)
		streams := mem.StandardRefresh(clock, dram.ModeDefault, 0, 64)
		return devCfg, streams, nil
	}

	hp, err := tab.HighPerfAt(c.REFWms, c.EarlyTermination)
	if err != nil {
		return dram.Config{}, nil, err
	}
	devCfg.Timings[dram.ModeMaxCap] = tab.MaxCap.ToCycles(clock)
	devCfg.Timings[dram.ModeHighPerf] = hp.ToCycles(clock)

	hpRows := int(c.HPFraction * float64(devCfg.Rows))
	devCfg.ModeOf = ThresholdModeSource{HPRowsBelow: hpRows, Else: dram.ModeMaxCap}

	streams := mem.StandardRefresh(clock, dram.ModeMaxCap, c.HPFraction, c.REFWms)
	return devCfg, streams, nil
}

// HPRows returns the number of high-performance rows per bank for a device
// with the given rows-per-bank.
func (c Config) HPRows(rowsPerBank int) int {
	if !c.Enabled {
		return 0
	}
	return int(c.HPFraction * float64(rowsPerBank))
}

// String describes the operating point (used in experiment output).
func (c Config) String() string {
	if !c.Enabled {
		return "baseline-DDR4"
	}
	et := "w/E.T."
	if !c.EarlyTermination {
		et = "w/o-E.T."
	}
	return fmt.Sprintf("CLR(hp=%.0f%%,tREFW=%.0fms,%s)", c.HPFraction*100, c.REFWms, et)
}
