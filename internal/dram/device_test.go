package dram

import (
	"errors"
	"testing"
)

// testConfig builds a small device with baseline timings for fast tests.
func testConfig() Config {
	cfg := Standard16Gb()
	cfg.Rows = 1 << 10
	cfg.Columns = 32
	cfg.Timings[ModeDefault] = DDR4BaselineNS().ToCycles(cfg.ClockNS)
	return cfg
}

// clrConfig builds a device with all three CLR timing sets and the given
// row-mode source.
func clrConfig(src RowModeSource) Config {
	cfg := testConfig()
	cfg.Timings[ModeMaxCap] = MaxCapNS().ToCycles(cfg.ClockNS)
	cfg.Timings[ModeHighPerf] = HighPerfNS(true).ToCycles(cfg.ClockNS)
	cfg.ModeOf = src
	return cfg
}

// advanceUntil ticks the device until cmd can issue, then issues it, and
// returns the issue cycle. It fails the test after a generous bound.
func advanceUntil(t *testing.T, d *Device, cmd Command) int64 {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if d.CanIssue(cmd) {
			at := d.Clock()
			d.Issue(cmd)
			return at
		}
		d.Tick()
	}
	t.Fatalf("command %v never became issuable", cmd)
	return -1
}

func TestActivateReadPrechargeSequence(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]

	act := Command{Kind: KindACT, Bank: 0, Row: 5}
	if !d.CanIssue(act) {
		t.Fatal("ACT should issue immediately on an idle device")
	}
	d.Issue(act)
	actAt := d.Clock()

	rd := Command{Kind: KindRD, Bank: 0, Row: 5, Column: 3}
	if d.CanIssue(rd) {
		t.Fatal("RD must wait tRCD after ACT")
	}
	rdAt := advanceUntil(t, d, rd)
	if got := rdAt - actAt; got != int64(ts.RCD) {
		t.Fatalf("ACT→RD gap = %d cycles, want tRCD = %d", got, ts.RCD)
	}

	pre := Command{Kind: KindPRE, Bank: 0}
	preAt := advanceUntil(t, d, pre)
	if got := preAt - actAt; got != int64(ts.RAS) {
		t.Fatalf("ACT→PRE gap = %d cycles, want tRAS = %d", got, ts.RAS)
	}

	act2 := Command{Kind: KindACT, Bank: 0, Row: 6}
	act2At := advanceUntil(t, d, act2)
	if got := act2At - preAt; got != int64(ts.RP) {
		t.Fatalf("PRE→ACT gap = %d cycles, want tRP = %d", got, ts.RP)
	}
}

func TestReadRequiresOpenMatchingRow(t *testing.T) {
	d := NewDevice(testConfig())
	if d.CanIssue(Command{Kind: KindRD, Bank: 0, Row: 1}) {
		t.Fatal("RD on a closed bank must not issue")
	}
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 1})
	if d.CanIssue(Command{Kind: KindRD, Bank: 0, Row: 2}) {
		t.Fatal("RD on a non-open row must not issue")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 1})
	wrAt := advanceUntil(t, d, Command{Kind: KindWR, Bank: 0, Row: 1})
	preAt := advanceUntil(t, d, Command{Kind: KindPRE, Bank: 0})
	want := int64(ts.CWL + ts.BL + ts.WR)
	if got := preAt - wrAt; got < want {
		t.Fatalf("WR→PRE gap = %d, want ≥ tCWL+tBL+tWR = %d", got, want)
	}
}

func TestTFAWLimitsActivationBurst(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	var actTimes []int64
	for b := 0; b < 5; b++ {
		at := advanceUntil(t, d, Command{Kind: KindACT, Bank: b, Row: 0})
		actTimes = append(actTimes, at)
	}
	// The 5th ACT must be at least tFAW after the 1st.
	if got := actTimes[4] - actTimes[0]; got < int64(ts.FAW) {
		t.Fatalf("5th ACT only %d cycles after 1st, want ≥ tFAW = %d", got, ts.FAW)
	}
	// Consecutive ACTs obey tRRD.
	for i := 1; i < 5; i++ {
		if gap := actTimes[i] - actTimes[i-1]; gap < int64(ts.RRDS) {
			t.Fatalf("ACT gap %d < tRRD_S %d", gap, ts.RRDS)
		}
	}
}

func TestSameBankGroupUsesLongTimings(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	// Bank 0 and bank 1 are in the same group; bank 4 is in another group.
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 0})
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 1, Row: 0})
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 4, Row: 0})
	rd0 := advanceUntil(t, d, Command{Kind: KindRD, Bank: 0, Row: 0})
	// Same-group RD must wait tCCD_L.
	rd1 := advanceUntil(t, d, Command{Kind: KindRD, Bank: 1, Row: 0})
	if got := rd1 - rd0; got < int64(ts.CCDL) {
		t.Fatalf("same-group RD→RD gap = %d, want ≥ tCCD_L = %d", got, ts.CCDL)
	}
	// Cross-group RD only waits tCCD_S.
	d2 := NewDevice(testConfig())
	advanceUntil(t, d2, Command{Kind: KindACT, Bank: 0, Row: 0})
	advanceUntil(t, d2, Command{Kind: KindACT, Bank: 4, Row: 0})
	a := advanceUntil(t, d2, Command{Kind: KindRD, Bank: 0, Row: 0})
	b := advanceUntil(t, d2, Command{Kind: KindRD, Bank: 4, Row: 0})
	if got := b - a; got < int64(ts.CCDS) || got >= int64(ts.CCDL) {
		t.Fatalf("cross-group RD→RD gap = %d, want in [tCCD_S=%d, tCCD_L=%d)", got, ts.CCDS, ts.CCDL)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 0})
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 4, Row: 0})
	wrAt := advanceUntil(t, d, Command{Kind: KindWR, Bank: 0, Row: 0})
	rdAt := advanceUntil(t, d, Command{Kind: KindRD, Bank: 4, Row: 0})
	want := int64(ts.CWL + ts.BL + ts.WTRS)
	if got := rdAt - wrAt; got < want {
		t.Fatalf("WR→RD gap = %d, want ≥ %d", got, want)
	}
}

func TestRefreshRequiresAllBanksClosedAndBlocksDevice(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 3, Row: 7})
	if d.CanIssue(Command{Kind: KindREF}) {
		t.Fatal("REF must not issue with an open bank")
	}
	advanceUntil(t, d, Command{Kind: KindPRE, Bank: 3})
	refAt := advanceUntil(t, d, Command{Kind: KindREF})
	if !d.RefreshBusy() {
		t.Fatal("device should be refresh-busy after REF")
	}
	actAt := advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 0})
	if got := actAt - refAt; got < int64(ts.RFC) {
		t.Fatalf("REF→ACT gap = %d, want ≥ tRFC = %d", got, ts.RFC)
	}
}

// modeByRow maps even rows to max-capacity and odd rows to high-performance.
type modeByRow struct{}

func (modeByRow) RowMode(bank, row int) Mode {
	if row%2 == 0 {
		return ModeMaxCap
	}
	return ModeHighPerf
}

func TestPerRowModeTimings(t *testing.T) {
	d := NewDevice(clrConfig(modeByRow{}))
	hp := d.Config().Timings[ModeHighPerf]
	mc := d.Config().Timings[ModeMaxCap]
	if hp.RCD >= mc.RCD {
		t.Fatalf("high-perf tRCD (%d) should be < max-cap tRCD (%d)", hp.RCD, mc.RCD)
	}

	// Activate a high-performance row (odd) and measure ACT→RD.
	actAt := advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 1})
	rdAt := advanceUntil(t, d, Command{Kind: KindRD, Bank: 0, Row: 1})
	if got := rdAt - actAt; got != int64(hp.RCD) {
		t.Fatalf("HP row ACT→RD = %d, want %d", got, hp.RCD)
	}
	preAt := advanceUntil(t, d, Command{Kind: KindPRE, Bank: 0})
	if got := preAt - actAt; got != int64(hp.RAS) {
		t.Fatalf("HP row ACT→PRE = %d, want tRAS = %d", got, hp.RAS)
	}

	// Now a max-capacity row (even) on the same bank: longer tRCD.
	actAt = advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 2})
	rdAt = advanceUntil(t, d, Command{Kind: KindRD, Bank: 0, Row: 2})
	if got := rdAt - actAt; got != int64(mc.RCD) {
		t.Fatalf("max-cap row ACT→RD = %d, want %d", got, mc.RCD)
	}
}

func TestModePropagatedToListener(t *testing.T) {
	var got []Command
	cfg := clrConfig(modeByRow{})
	cfg.Listener = cmdRecorder{&got}
	d := NewDevice(cfg)
	advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 1})
	advanceUntil(t, d, Command{Kind: KindPRE, Bank: 0})
	if len(got) != 2 {
		t.Fatalf("listener saw %d commands, want 2", len(got))
	}
	if got[0].Mode != ModeHighPerf {
		t.Fatalf("ACT mode = %v, want high-performance", got[0].Mode)
	}
	if got[1].Mode != ModeHighPerf || got[1].Row != 1 {
		t.Fatalf("PRE should carry the closed row's mode and index, got %+v", got[1])
	}
}

type cmdRecorder struct{ out *[]Command }

func (r cmdRecorder) OnCommand(cmd Command, cycle int64) { *r.out = append(*r.out, cmd) }

func TestIssueEarlyPanics(t *testing.T) {
	d := NewDevice(testConfig())
	d.Issue(Command{Kind: KindACT, Bank: 0, Row: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("issuing RD before tRCD should panic")
		}
	}()
	d.Issue(Command{Kind: KindRD, Bank: 0, Row: 0})
}

func TestOpenRowIdleSince(t *testing.T) {
	d := NewDevice(testConfig())
	if _, open := d.OpenRowIdleSince(0); open {
		t.Fatal("bank 0 should start closed")
	}
	actAt := advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 0})
	since, open := d.OpenRowIdleSince(0)
	if !open || since != actAt {
		t.Fatalf("idle-since = %d,%v; want %d,true", since, open, actAt)
	}
	rdAt := advanceUntil(t, d, Command{Kind: KindRD, Bank: 0, Row: 0})
	since, _ = d.OpenRowIdleSince(0)
	if since != rdAt {
		t.Fatalf("idle-since after RD = %d, want %d", since, rdAt)
	}
}

func TestHighPerfRowCycleIsShorter(t *testing.T) {
	// End-to-end: a full ACT→PRE→ACT row cycle on a high-performance row
	// must be much shorter than on a baseline row (the paper's core claim).
	base := NewDevice(testConfig())
	clr := NewDevice(clrConfig(FixedMode(ModeHighPerf)))

	cycleLen := func(d *Device) int64 {
		a1 := advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 0})
		advanceUntil(t, d, Command{Kind: KindPRE, Bank: 0})
		a2 := advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 1})
		return a2 - a1
	}
	b := cycleLen(base)
	c := cycleLen(clr)
	// Paper: tRC shrinks from 54.9 ns to 22.4 ns ⇒ ratio ≈ 0.41.
	ratio := float64(c) / float64(b)
	if ratio > 0.5 {
		t.Fatalf("HP row cycle ratio = %.2f, want < 0.5 (b=%d, c=%d)", ratio, b, c)
	}
}

func TestPREAClosesAllBanks(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	// Open three banks.
	for _, b := range []int{0, 5, 9} {
		advanceUntil(t, d, Command{Kind: KindACT, Bank: b, Row: 1})
	}
	if m := d.OpenBankMask(); m != 1|1<<5|1<<9 {
		t.Fatalf("OpenBankMask = %#x with banks 0, 5 and 9 open", m)
	}
	preaAt := advanceUntil(t, d, Command{Kind: KindPREA})
	for _, b := range []int{0, 5, 9} {
		if open, _ := d.BankState(b); open {
			t.Fatalf("bank %d still open after PREA", b)
		}
	}
	if m := d.OpenBankMask(); m != 0 {
		t.Fatalf("OpenBankMask = %#x after PREA", m)
	}
	// Subsequent ACT waits tRP from the PREA.
	actAt := advanceUntil(t, d, Command{Kind: KindACT, Bank: 5, Row: 2})
	if gap := actAt - preaAt; gap < int64(ts.RP) {
		t.Fatalf("PREA→ACT gap %d < tRP %d", gap, ts.RP)
	}
}

func TestPREARespectsSlowesttRAS(t *testing.T) {
	d := NewDevice(testConfig())
	ts := d.Config().Timings[ModeDefault]
	a1 := advanceUntil(t, d, Command{Kind: KindACT, Bank: 0, Row: 1})
	// Second ACT later: PREA must wait for ITS tRAS too.
	a2 := advanceUntil(t, d, Command{Kind: KindACT, Bank: 4, Row: 1})
	preaAt := advanceUntil(t, d, Command{Kind: KindPREA})
	if preaAt-a1 < int64(ts.RAS) || preaAt-a2 < int64(ts.RAS) {
		t.Fatalf("PREA at %d violates tRAS of ACTs at %d/%d", preaAt, a1, a2)
	}
}

func TestPREAIdempotentOnClosedRank(t *testing.T) {
	d := NewDevice(testConfig())
	if !d.CanIssue(Command{Kind: KindPREA}) {
		t.Fatal("PREA on an all-closed rank should be legal")
	}
	d.Issue(Command{Kind: KindPREA}) // must not panic or change state
	if open, _ := d.BankState(0); open {
		t.Fatal("no bank should open from PREA")
	}
}

func TestEarliestIssueConsistentWithCanIssue(t *testing.T) {
	// Property: CanIssue == (EarliestIssue <= clock) across a random-ish
	// command workout.
	d := NewDevice(testConfig())
	cmds := []Command{
		{Kind: KindACT, Bank: 0, Row: 1},
		{Kind: KindRD, Bank: 0, Row: 1},
		{Kind: KindPRE, Bank: 0},
		{Kind: KindPREA},
		{Kind: KindREF},
	}
	for step := 0; step < 5000; step++ {
		for _, cmd := range cmds {
			can := d.CanIssue(cmd)
			early := d.EarliestIssue(cmd) <= d.Clock()
			if can != early {
				t.Fatalf("inconsistent CanIssue/EarliestIssue for %v at cycle %d", cmd, d.Clock())
			}
		}
		// Issue whatever is legal, round-robin.
		for _, cmd := range cmds {
			if d.CanIssue(cmd) {
				d.Issue(cmd)
				break
			}
		}
		d.Tick()
	}
}

// TestValidateRejectsTooManyBanks pins the MaxBanks limit: Validate accepts
// a 64-bank rank, rejects 65 banks with an error wrapping ErrTooManyBanks,
// and DeriveConfig returns the same sentinel for a 128-bank table.
func TestValidateRejectsTooManyBanks(t *testing.T) {
	cfg := testConfig()
	cfg.BankGroups, cfg.BanksPerGroup = 4, 16
	if err := cfg.Validate(); err != nil {
		t.Fatalf("64 banks: %v", err)
	}
	cfg.BankGroups, cfg.BanksPerGroup = 5, 13
	if err := cfg.Validate(); !errors.Is(err, ErrTooManyBanks) {
		t.Fatalf("65 banks: error = %v, want wrapping ErrTooManyBanks", err)
	}
	params := lpddr4Params()
	params[paramBankGroups], params[paramBanksPerGroup] = 8, 16
	if _, err := DeriveConfig(params); !errors.Is(err, ErrTooManyBanks) {
		t.Fatalf("DeriveConfig with 128 banks: error = %v, want wrapping ErrTooManyBanks", err)
	}
}
