package core

import (
	"math"
	"strings"
	"testing"

	"clrdram/internal/dram"
)

func TestConfigValidate(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	if err := CLR(0.5).Validate(); err != nil {
		t.Fatalf("CLR(0.5) invalid: %v", err)
	}
	bad := []Config{
		{Enabled: true, HPFraction: -0.1, REFWms: 64},
		{Enabled: true, HPFraction: 1.1, REFWms: 64},
		{Enabled: true, HPFraction: 0.5, REFWms: 32},  // below DDR4 floor
		{Enabled: true, HPFraction: 0.5, REFWms: 500}, // beyond sensing limit
		{Enabled: false, HPFraction: 0.5},             // baseline with HP rows
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) should be invalid", i, c)
		}
	}
}

// TestBuildFixedTimingDevice checks the one definition of the fixed-timing
// rule: a device that prescribes its own Timings[ModeDefault] (lpddr4-3200)
// builds as the baseline with those timings kept, and rejects CLR modes.
func TestBuildFixedTimingDevice(t *testing.T) {
	lp, err := dram.StandardConfig("lpddr4-3200")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Baseline().Build(lp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timings[dram.ModeDefault] != lp.Timings[dram.ModeDefault] {
		t.Fatalf("baseline build replaced the prescribed timings: %+v, want %+v",
			got.Timings[dram.ModeDefault], lp.Timings[dram.ModeDefault])
	}
	if _, _, err := CLR(0.5).Build(lp); err == nil || !strings.Contains(err.Error(), "cannot model CLR-DRAM") {
		t.Fatalf("CLR build on a fixed-timing device = %v, want a CLR-capability rejection", err)
	}
}

func TestBuildBaseline(t *testing.T) {
	devCfg := dram.Standard16Gb()
	got, streams, err := Baseline().Build(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := got.Timings[dram.ModeDefault]
	want := dram.DDR4BaselineNS().ToCycles(devCfg.ClockNS)
	if ts != want {
		t.Fatalf("baseline timings = %+v, want %+v", ts, want)
	}
	if len(streams) != 1 {
		t.Fatalf("baseline should have 1 refresh stream, got %d", len(streams))
	}
	if got.ModeOf.RowMode(0, 0) != dram.ModeDefault {
		t.Fatal("baseline rows must be ModeDefault")
	}
}

func TestBuildCLR(t *testing.T) {
	devCfg := dram.Standard16Gb()
	cfg := CLR(0.25)
	got, streams, err := cfg.Build(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 (below the 25% threshold) is high-performance; the last row is
	// max-capacity.
	if got.ModeOf.RowMode(0, 0) != dram.ModeHighPerf {
		t.Fatal("row 0 should be high-performance at 25%")
	}
	if got.ModeOf.RowMode(0, devCfg.Rows-1) != dram.ModeMaxCap {
		t.Fatal("last row should be max-capacity at 25%")
	}
	if len(streams) != 2 {
		t.Fatalf("mixed-mode device needs 2 refresh streams, got %d", len(streams))
	}
	hp := got.Timings[dram.ModeHighPerf]
	mc := got.Timings[dram.ModeMaxCap]
	if hp.RCD >= mc.RCD || hp.RAS >= mc.RAS {
		t.Fatal("high-performance timings should beat max-capacity")
	}
	if hp.RP != mc.RP {
		t.Fatal("tRP reduction applies to both CLR modes (§7.2)")
	}
}

func TestBuildCLRFullHP(t *testing.T) {
	devCfg := dram.Standard16Gb()
	cfg := CLR(1.0)
	cfg.REFWms = 194
	got, streams, err := cfg.Build(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("100%% HP should have a single refresh stream, got %d", len(streams))
	}
	// Extended window slows activation: tRCD above the 64 ms HP value.
	hp64 := dram.HighPerfNS(true).ToCycles(devCfg.ClockNS)
	hp194 := got.Timings[dram.ModeHighPerf]
	if hp194.RCD <= hp64.RCD {
		t.Fatalf("tRCD at 194 ms (%d) should exceed 64 ms value (%d)", hp194.RCD, hp64.RCD)
	}
}

func TestConfigString(t *testing.T) {
	if s := Baseline().String(); s != "baseline-DDR4" {
		t.Fatalf("baseline string = %q", s)
	}
	if s := CLR(0.25).String(); !strings.Contains(s, "25%") {
		t.Fatalf("CLR string = %q", s)
	}
}

func TestTimingTableHighPerfAt(t *testing.T) {
	tab := DefaultTable()
	at64, err := tab.HighPerfAt(64, true)
	if err != nil || at64.RCD != 5.5 || at64.RAS != 14.1 {
		t.Fatalf("64 ms ET = %+v, %v", at64, err)
	}
	noET, err := tab.HighPerfAt(64, false)
	if err != nil || noET.RCD != 5.4 || noET.RAS != 20.3 {
		t.Fatalf("64 ms no-ET = %+v, %v", noET, err)
	}
	// Figure 11 endpoint: 194 ms → +3.24 ns tRCD, +3.04 ns tRAS.
	at194, err := tab.HighPerfAt(194, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at194.RCD-8.74) > 0.01 || math.Abs(at194.RAS-17.14) > 0.01 {
		t.Fatalf("194 ms = RCD %.2f / RAS %.2f, want 8.74 / 17.14", at194.RCD, at194.RAS)
	}
	// Interpolated intermediate points are monotone.
	last := at64
	for _, ms := range []float64{84, 114, 124, 144, 164, 184} {
		cur, err := tab.HighPerfAt(ms, true)
		if err != nil {
			t.Fatalf("HighPerfAt(%v): %v", ms, err)
		}
		if cur.RCD <= last.RCD || cur.RAS <= last.RAS {
			t.Fatalf("curve not increasing at %v ms", ms)
		}
		// tRFC grows with tRAS (smaller reduction).
		if cur.RFC <= last.RFC {
			t.Fatalf("tRFC should grow with extended window at %v ms", ms)
		}
		last = cur
	}
	// Errors.
	if _, err := tab.HighPerfAt(114, false); err == nil {
		t.Fatal("extended window without early termination must error")
	}
	if _, err := tab.HighPerfAt(300, true); err == nil {
		t.Fatal("beyond-limit window must error")
	}
}

func TestReductionSummary(t *testing.T) {
	r := DefaultTable().ReductionSummary()
	want := map[string]float64{"tRCD": 0.601, "tRAS": 0.642, "tRP": 0.464, "tWR": 0.352}
	for k, w := range want {
		if math.Abs(r[k]-w) > 0.005 {
			t.Errorf("%s reduction = %.3f, want ≈%.3f (paper abstract)", k, r[k], w)
		}
	}
}

func TestThresholdModeSource(t *testing.T) {
	src := ThresholdModeSource{HPRowsBelow: 100, Else: dram.ModeMaxCap}
	if src.RowMode(3, 99) != dram.ModeHighPerf || src.RowMode(0, 100) != dram.ModeMaxCap {
		t.Fatal("threshold boundary wrong")
	}
}

func TestRowModeMap(t *testing.T) {
	m := NewRowModeMap(4, 128, dram.ModeMaxCap)
	if m.RowMode(2, 5) != dram.ModeMaxCap {
		t.Fatal("default mode wrong")
	}
	m.SetHighPerf(2, 5, true)
	if m.RowMode(2, 5) != dram.ModeHighPerf {
		t.Fatal("SetHighPerf did not apply")
	}
	if m.RowMode(2, 6) != dram.ModeMaxCap || m.RowMode(3, 5) != dram.ModeMaxCap {
		t.Fatal("neighbouring rows affected")
	}
	if m.HPCount() != 1 {
		t.Fatalf("HPCount = %d", m.HPCount())
	}
	m.SetHighPerf(2, 5, true) // idempotent
	if m.HPCount() != 1 {
		t.Fatal("double-set changed count")
	}
	m.SetHighPerf(2, 5, false)
	if m.HPCount() != 0 || m.RowMode(2, 5) != dram.ModeMaxCap {
		t.Fatal("unset failed")
	}
	if m.StorageBits() != 4*128 {
		t.Fatalf("StorageBits = %d, want one bit per row", m.StorageBits())
	}
	m.SetHighPerf(0, 0, true)
	if f := m.HPFraction(); math.Abs(f-1.0/512) > 1e-12 {
		t.Fatalf("HPFraction = %v", f)
	}
}

func TestRowModeMapBoundsPanic(t *testing.T) {
	m := NewRowModeMap(2, 8, dram.ModeMaxCap)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row should panic")
		}
	}()
	m.RowMode(2, 0)
}

func TestAreaModelMatchesPaper(t *testing.T) {
	bl, cio, total := DefaultAreaModel().Overhead()
	if math.Abs(bl-0.016) > 0.001 {
		t.Errorf("bitline overhead = %.4f, want ≈0.016", bl)
	}
	if math.Abs(cio-0.016) > 0.001 {
		t.Errorf("column I/O overhead = %.4f, want ≈0.016", cio)
	}
	if math.Abs(total-0.032) > 0.002 {
		t.Errorf("total overhead = %.4f, want ≈0.032 (paper: at most 3.2%%)", total)
	}
	// Optimistic slack case halves the total.
	opt := DefaultAreaModel()
	opt.ColumnIOFitsInSlack = true
	_, cio2, total2 := opt.Overhead()
	if cio2 != 0 || total2 >= total {
		t.Error("slack-fit case should drop the column I/O term")
	}
}

func TestCapacityFactor(t *testing.T) {
	cases := map[float64]float64{0: 1, 0.25: 0.875, 0.5: 0.75, 1: 0.5}
	for f, want := range cases {
		if got := CapacityFactor(f); math.Abs(got-want) > 1e-12 {
			t.Errorf("CapacityFactor(%v) = %v, want %v (§6.1: X%% HP → X/2%% loss)", f, got, want)
		}
	}
}

func TestControllerStorageBits(t *testing.T) {
	if got := ControllerStorageBits(1<<21, 1); got != 1<<21 {
		t.Fatalf("unoptimised storage = %d bits", got)
	}
	if got := ControllerStorageBits(1<<21, 16); got != 1<<17 {
		t.Fatalf("granularity-16 storage = %d bits, want 2^17 (§6.2 factor 2^Y)", got)
	}
}
