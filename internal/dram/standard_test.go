package dram

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// TestStandardConfig checks both standards StandardConfig knows: the empty
// name is the CLR-capable ddr4-2400 device, whose timings the CLR layer
// fills, lpddr4-3200 prescribes its own valid timing set, and an unknown
// name is a typed error listing the known ones.
func TestStandardConfig(t *testing.T) {
	def, err := StandardConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if want := Standard16Gb(); def != want {
		t.Fatalf("empty name resolved to %+v, want Standard16Gb %+v", def, want)
	}
	if named, err := StandardConfig(DefaultStandard); err != nil || named != def {
		t.Fatalf("StandardConfig(%q) = %+v, %v; want the empty name's device", DefaultStandard, named, err)
	}
	if def.Timings[ModeDefault] != (TimingSet{}) {
		t.Fatal("the CLR-capable default standard must leave timings to the CLR layer")
	}

	lp, err := StandardConfig("lpddr4-3200")
	if err != nil {
		t.Fatal(err)
	}
	if lp.Timings[ModeDefault] == (TimingSet{}) {
		t.Fatal("a fixed-timing standard must prescribe Timings[ModeDefault]")
	}
	if err := lp.Validate(); err != nil {
		t.Fatalf("lpddr4-3200 device config invalid: %v", err)
	}

	_, err = StandardConfig("sdram-66")
	if !errors.Is(err, ErrUnknownStandard) {
		t.Fatalf("unknown name error = %v, want ErrUnknownStandard", err)
	}
	if !strings.Contains(err.Error(), DefaultStandard) {
		t.Fatalf("unknown-name error should list the known names, got %q", err)
	}

	names := StandardNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("StandardNames not sorted: %v", names)
	}
	for _, want := range []string{"ddr4-2400", "lpddr4-3200"} {
		i := sort.SearchStrings(names, want)
		if i == len(names) || names[i] != want {
			t.Fatalf("StandardNames %v missing %q", names, want)
		}
	}
}

// TestTimingSetFromTable checks the table derivation against hand-computed
// cycle counts at the LPDDR4-3200 clock (0.625 ns).
func TestTimingSetFromTable(t *testing.T) {
	ts, err := TimingSetFromTable(lpddr4Params(), 0.625)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(ns / 0.625), computed by hand from the lpddr4Params table.
	want := map[string][2]int{
		"RCD":  {ts.RCD, 29},  // ceil(18/0.625) = 29 (28.8)
		"RAS":  {ts.RAS, 68},  // 42/0.625 = 67.2
		"RP":   {ts.RP, 29},   // 28.8
		"WR":   {ts.WR, 29},   // 28.8
		"RTP":  {ts.RTP, 12},  // 7.5/0.625 = 12 exactly
		"CL":   {ts.CL, 28},   // 17.5/0.625 = 28 exactly (RL=28)
		"CWL":  {ts.CWL, 14},  // 8.75/0.625 = 14 exactly (WL=14)
		"BL":   {ts.BL, 8},    // stated in clocks
		"CCDS": {ts.CCDS, 8},  // stated in clocks
		"CCDL": {ts.CCDL, 8},  // stated in clocks
		"RRDS": {ts.RRDS, 16}, // 10/0.625 = 16
		"RRDL": {ts.RRDL, 16},
		"FAW":  {ts.FAW, 64},  // 40/0.625 = 64
		"WTRS": {ts.WTRS, 16}, // 10/0.625 = 16
		"WTRL": {ts.WTRL, 16},
		"RFC":  {ts.RFC, 448},   // 280/0.625 = 448
		"REFI": {ts.REFI, 6247}, // 3904/0.625 = 6246.4
		"RTW":  {ts.RTW, 24},    // CL - CWL + BL + 2 = 28-14+8+2
		"RC":   {ts.RC, 97},     // RAS + RP = 68 + 29
	}
	for name, pair := range want {
		if pair[0] != pair[1] {
			t.Errorf("%s = %d cycles, want %d", name, pair[0], pair[1])
		}
	}
}

func TestTimingSetFromTableRRDFloor(t *testing.T) {
	p := lpddr4Params()
	p["tRRD_S"], p["tRRD_L"] = 0.625, 0.625 // 1 clock, below the JEDEC 4-clock floor
	ts, err := TimingSetFromTable(p, 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if ts.RRDS != 4 || ts.RRDL != 4 {
		t.Fatalf("tRRD floor: got RRDS=%d RRDL=%d, want 4/4", ts.RRDS, ts.RRDL)
	}
}

func TestTimingSetFromTableMissingKeys(t *testing.T) {
	p := lpddr4Params()
	delete(p, "tRCD")
	p["nBL"] = 8.5 // non-integral cycle count is also rejected
	_, err := TimingSetFromTable(p, 0.625)
	if err == nil {
		t.Fatal("missing tRCD must fail")
	}
	for _, frag := range []string{"tRCD", "nBL (not integral)"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q should name %q", err, frag)
		}
	}
	if _, err := TimingSetFromTable(lpddr4Params(), 0); err == nil {
		t.Fatal("zero clock must fail")
	}
}

func TestDeriveConfig(t *testing.T) {
	cfg, err := DeriveConfig(lpddr4Params())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BankGroups != 1 || cfg.BanksPerGroup != 8 || cfg.Rows != 1<<17 ||
		cfg.Columns != 256 || cfg.ClockNS != 0.625 {
		t.Fatalf("geometry = %+v", cfg)
	}
	ts, err := TimingSetFromTable(lpddr4Params(), 0.625)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Timings[ModeDefault] != ts {
		t.Fatal("DeriveConfig timing differs from TimingSetFromTable")
	}
	for _, m := range []Mode{ModeMaxCap, ModeHighPerf} {
		if cfg.Timings[m] != (TimingSet{}) {
			t.Fatalf("fixed standard must not fill mode %v timings", m)
		}
	}

	p := lpddr4Params()
	p[paramRows] = 1.5 // geometry keys must be integral
	if _, err := DeriveConfig(p); err == nil {
		t.Fatal("fractional row count must fail")
	}
	p = lpddr4Params()
	delete(p, paramTCK)
	if _, err := DeriveConfig(p); err == nil {
		t.Fatal("missing tCK must fail")
	}
}
