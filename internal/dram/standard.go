package dram

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// A Standard bundles what a DRAM timing specification prescribes for the
// device model: the rank geometry, the clock, and (for fixed-timing
// standards) the ModeDefault timing set. It is the first of the three
// swappable memory-system roles (standard, scheduler, row policy); the
// other two live in internal/mem.
//
// Two kinds of standard exist:
//
//   - CLR-capable standards leave Timings zero. The CLR configuration layer
//     (internal/core) derives all per-mode timing sets from its SPICE-backed
//     TimingTable, so the standard only pins geometry and clock. The default
//     "ddr4-2400" standard — the paper's Table 2 device — is of this kind.
//   - Fixed standards provide Timings[ModeDefault] themselves (typically
//     table-driven via DeriveConfig) and reject CLR mode configurations:
//     their device has no SPICE model behind it, so per-row mode timings
//     would be fiction.
type Standard interface {
	// Name returns the registry name, e.g. "ddr4-2400".
	Name() string
	// DeviceConfig returns the geometry, clock and (for fixed standards)
	// timing the standard prescribes. Callers may override geometry fields
	// before building the device; the returned value is a copy.
	DeviceConfig() Config
	// CLRCapable reports whether the device may be configured with CLR-DRAM
	// per-row modes (internal/core fills Timings for all NumModes entries).
	CLRCapable() bool
}

// DefaultStandard names the registry entry every zero configuration resolves
// to: the paper's 16 Gb DDR4-2400 device (Standard16Gb geometry, timings
// filled by the CLR layer's Table 1 baseline column).
const DefaultStandard = "ddr4-2400"

// ErrUnknownStandard is wrapped by NewStandard for names with no registry
// entry. Match with errors.Is.
var ErrUnknownStandard = errors.New("dram: unknown standard")

var standards = map[string]Standard{}

// RegisterStandard adds a standard to the registry under s.Name(). It panics
// on an empty name or a duplicate registration: registration happens at init
// time, where a collision is a programming error, not an input error.
func RegisterStandard(s Standard) {
	name := s.Name()
	if name == "" {
		panic("dram: RegisterStandard with empty name")
	}
	if _, dup := standards[name]; dup {
		panic("dram: RegisterStandard duplicate name " + name)
	}
	standards[name] = s
}

// NewStandard resolves a registry name. The empty string resolves to
// DefaultStandard; unknown names return an error wrapping
// ErrUnknownStandard that lists the registered names.
func NewStandard(name string) (Standard, error) {
	if name == "" {
		name = DefaultStandard
	}
	s, ok := standards[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownStandard, name, StandardNames())
	}
	return s, nil
}

// StandardNames returns the registered standard names, sorted.
func StandardNames() []string {
	names := make([]string, 0, len(standards))
	for n := range standards {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ddr4Standard is the paper's device: Standard16Gb geometry with timings
// left to the CLR configuration layer (Table 1 baseline / MaxCap / HighPerf
// columns, or just the baseline column for -baseline runs).
type ddr4Standard struct{}

func (ddr4Standard) Name() string         { return DefaultStandard }
func (ddr4Standard) DeviceConfig() Config { return Standard16Gb() }
func (ddr4Standard) CLRCapable() bool     { return true }

// tableStandard is a fixed-timing standard whose whole device configuration
// was derived from a flat parameter table (DeriveConfig).
type tableStandard struct {
	name string
	cfg  Config
}

func (s *tableStandard) Name() string         { return s.name }
func (s *tableStandard) DeviceConfig() Config { return s.cfg }
func (s *tableStandard) CLRCapable() bool     { return false }

// NewTableStandard builds (without registering) a fixed-timing standard from
// a flat parameter table; see DeriveConfig for the key set. Library users
// register the result with RegisterStandard to make it flag-selectable.
func NewTableStandard(name string, params map[string]float64) (Standard, error) {
	if name == "" {
		return nil, fmt.Errorf("dram: table standard needs a name")
	}
	cfg, err := DeriveConfig(params)
	if err != nil {
		return nil, fmt.Errorf("dram: standard %q: %w", name, err)
	}
	return &tableStandard{name: name, cfg: cfg}, nil
}

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

func init() {
	RegisterStandard(ddr4Standard{})
	lp, err := NewTableStandard("lpddr4-3200", lpddr4Params())
	if err != nil {
		panic(err) // a broken built-in table is a programming error
	}
	RegisterStandard(lp)
}
