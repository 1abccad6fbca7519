package dram

import (
	"errors"
	"fmt"
	"math"
)

// DefaultStandard names the DRAM standard every zero configuration resolves
// to: the paper's 16 Gb DDR4-2400 device (Standard16Gb geometry, timings
// filled by the CLR layer's Table 1 baseline column).
const DefaultStandard = "ddr4-2400"

// ErrUnknownStandard is wrapped by StandardConfig for names it does not
// know. Match with errors.Is.
var ErrUnknownStandard = errors.New("dram: unknown standard")

// StandardConfig returns the device configuration a DRAM standard
// prescribes: rank geometry, clock and, for a fixed-timing standard, the
// ModeDefault timing set. The set of standards is closed; the empty name
// resolves to DefaultStandard.
//
//   - "ddr4-2400", the paper's Table 2 device, leaves Timings zero: the CLR
//     configuration layer (internal/core) derives every per-mode timing set
//     from its SPICE-backed TimingTable, so the standard pins only geometry
//     and clock.
//   - "lpddr4-3200" is derived from a flat parameter table (DeriveConfig)
//     and prescribes Timings[ModeDefault] itself. Its device has no SPICE
//     model behind it, so core.Config.Build runs it as the baseline only.
//
// Unknown names return an error wrapping ErrUnknownStandard that lists
// StandardNames.
func StandardConfig(name string) (Config, error) {
	switch name {
	case "", DefaultStandard:
		return Standard16Gb(), nil
	case "lpddr4-3200":
		return DeriveConfig(lpddr4Params())
	}
	return Config{}, fmt.Errorf("%w %q (have %v)", ErrUnknownStandard, name, StandardNames())
}

// StandardNames returns the names StandardConfig accepts, sorted.
func StandardNames() []string { return []string{DefaultStandard, "lpddr4-3200"} }

// Geometry keys DeriveConfig consumes in addition to the timing keys of
// TimingSetFromTable. All values are float64 for table uniformity; the
// integer-valued ones must be integral.
const (
	paramBankGroups    = "bankGroups"
	paramBanksPerGroup = "banksPerGroup"
	paramRows          = "rows"
	paramColumns       = "columns"
	paramTCK           = "tCK"
)

// DeriveConfig derives a complete fixed-timing device Config from one flat
// name→value table, the way table-driven simulators do (cf. SNIPPETS.md
// Snippet 3, where every timing and policy parameter is pulled from a
// config map by name). The table must hold the five geometry keys
// (bankGroups, banksPerGroup, rows, columns, tCK — tCK in ns) and the full
// timing key set of TimingSetFromTable. The derived config is validated
// before it is returned.
func DeriveConfig(params map[string]float64) (Config, error) {
	var missing []string
	_int := func(name string) int {
		v, ok := params[name]
		if !ok {
			missing = append(missing, name)
			return 0
		}
		if v != math.Trunc(v) {
			missing = append(missing, name+" (not integral)")
			return 0
		}
		return int(v)
	}
	cfg := Config{
		BankGroups:    _int(paramBankGroups),
		BanksPerGroup: _int(paramBanksPerGroup),
		Rows:          _int(paramRows),
		Columns:       _int(paramColumns),
	}
	if v, ok := params[paramTCK]; ok {
		cfg.ClockNS = v
	} else {
		missing = append(missing, paramTCK)
	}
	if len(missing) > 0 {
		return Config{}, fmt.Errorf("dram: DeriveConfig missing/invalid keys %v", missing)
	}
	ts, err := TimingSetFromTable(params, cfg.ClockNS)
	if err != nil {
		return Config{}, err
	}
	cfg.Timings[ModeDefault] = ts
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// TimingSetFromTable derives a TimingSet from a flat name→value table. The
// nanosecond-valued keys are tRCD, tRAS, tRP, tWR, tRTP, tCL, tCWL, tRRD_S,
// tRRD_L, tFAW, tWTR_S, tWTR_L, tRFC, tREFI; the protocol cycle counts are
// nBL, nCCD_S, nCCD_L (burst occupancy and column-to-column gaps, which a
// datasheet states in clocks, not ns). Every key is required — a typo'd
// entry surfaces as its intended key missing. The derived fields follow
// TimingNS.ToCycles: nanoseconds round up to cycles, tRRD floors at 4
// clocks, RTW = CL - CWL + BL + 2 (min CCD_S), RC = RAS + RP.
func TimingSetFromTable(params map[string]float64, clockNS float64) (TimingSet, error) {
	if clockNS <= 0 {
		return TimingSet{}, fmt.Errorf("dram: TimingSetFromTable needs a positive clock, got %v", clockNS)
	}
	var missing []string
	_ns := func(name string) int {
		v, ok := params[name]
		if !ok {
			missing = append(missing, name)
			return 0
		}
		if v <= 0 {
			return 0
		}
		return int(math.Ceil(v/clockNS - 1e-9))
	}
	_cyc := func(name string) int {
		v, ok := params[name]
		if !ok {
			missing = append(missing, name)
			return 0
		}
		if v != math.Trunc(v) {
			missing = append(missing, name+" (not integral)")
			return 0
		}
		return int(v)
	}
	s := TimingSet{
		RCD:  _ns("tRCD"),
		RAS:  _ns("tRAS"),
		RP:   _ns("tRP"),
		WR:   _ns("tWR"),
		RTP:  _ns("tRTP"),
		CL:   _ns("tCL"),
		CWL:  _ns("tCWL"),
		BL:   _cyc("nBL"),
		CCDS: _cyc("nCCD_S"),
		CCDL: _cyc("nCCD_L"),
		RRDS: maxInt(_ns("tRRD_S"), 4),
		RRDL: maxInt(_ns("tRRD_L"), 4),
		FAW:  _ns("tFAW"),
		WTRS: _ns("tWTR_S"),
		WTRL: _ns("tWTR_L"),
		RFC:  _ns("tRFC"),
		REFI: _ns("tREFI"),
	}
	if len(missing) > 0 {
		return TimingSet{}, fmt.Errorf("dram: TimingSetFromTable missing/invalid keys %v", missing)
	}
	s.RTW = s.CL - s.CWL + s.BL + 2
	if s.RTW < s.CCDS {
		s.RTW = s.CCDS
	}
	s.RC = s.RAS + s.RP
	if err := s.Validate(); err != nil {
		return TimingSet{}, err
	}
	return s, nil
}

// lpddr4Params is the table the "lpddr4-3200" standard is derived from: a
// 16 Gb LPDDR4-3200-class channel — 8 banks (no bank groups, so the _S/_L
// pairs coincide), a 1600 MHz clock, BL16, and datasheet-class analog
// timings. Refresh simplification: the controller's refresh engine paces
// REF by the refresh-stream interval (a 64 ms window via StandardRefresh),
// not by tREFI, so the LPDDR4 32 ms window is not modelled; tREFI here only
// feeds TimingSet validation.
func lpddr4Params() map[string]float64 {
	return map[string]float64{
		paramBankGroups:    1,
		paramBanksPerGroup: 8,
		paramRows:          1 << 17,
		paramColumns:       256,
		paramTCK:           0.625, // 1600 MHz clock, 3200 MT/s

		"tRCD":   18.0,
		"tRAS":   42.0,
		"tRP":    18.0, // per-bank precharge
		"tWR":    18.0,
		"tRTP":   7.5,
		"tCL":    17.5, // RL = 28 clocks
		"tCWL":   8.75, // WL = 14 clocks
		"tRRD_S": 10.0,
		"tRRD_L": 10.0,
		"tFAW":   40.0,
		"tWTR_S": 10.0,
		"tWTR_L": 10.0,
		"tRFC":   280.0, // all-bank refresh, 16 Gb density
		"tREFI":  3904.0,
		"nBL":    8, // BL16 on a double data rate bus
		"nCCD_S": 8,
		"nCCD_L": 8,
	}
}
