package dram

import (
	"fmt"
)

// Config describes the geometry and timing of a DRAM rank. The model follows
// the paper's system configuration (Table 2): one channel, one rank, four
// bank groups with four banks each, a 16 Gb chip density and a 1200 MHz bus.
type Config struct {
	BankGroups    int // number of bank groups in the rank
	BanksPerGroup int // banks per bank group
	Rows          int // rows per bank
	Columns       int // cache-line-sized columns per row (64 B each)
	ClockNS       float64

	// Timings is indexed by Mode. Entry 0 must be present; a plain DDR4
	// device provides only entry 0. CLR-DRAM devices fill all NumModes
	// entries (baseline entry unused but kept for symmetric indexing).
	Timings [NumModes]TimingSet

	// ModeOf reports the operating mode of each row. nil means every row
	// operates in ModeDefault.
	ModeOf RowModeSource

	// Listener, if non-nil, observes every issued command (power metering).
	Listener CommandListener
}

// Standard16Gb returns the paper's DDR4 geometry: 16 banks of 128 Ki rows,
// each row holding 128 cache lines (8 KiB per rank row).
func Standard16Gb() Config {
	return Config{
		BankGroups:    4,
		BanksPerGroup: 4,
		Rows:          1 << 17,
		Columns:       128,
		ClockNS:       1.0 / 1.2, // 1200 MHz
	}
}

// Banks returns the flat number of banks in the rank.
func (c Config) Banks() int { return c.BankGroups * c.BanksPerGroup }

// MaxBanks is the largest rank the device model supports: the open banks
// and the controller's per-bank horizon entries are tracked as one 64-bit
// mask. Every standard has at most 16 banks.
const MaxBanks = 64

// ErrTooManyBanks is wrapped by Validate for a rank of more than MaxBanks
// banks. Match with errors.Is.
var ErrTooManyBanks = fmt.Errorf("dram: more than %d banks in a rank", MaxBanks)

// Validate reports an error for impossible geometry or timing, and for a
// rank beyond MaxBanks banks (wrapping ErrTooManyBanks).
func (c Config) Validate() error {
	if c.BankGroups <= 0 || c.BanksPerGroup <= 0 || c.Rows <= 0 || c.Columns <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", c)
	}
	if n := c.Banks(); n > MaxBanks {
		return fmt.Errorf("%w: %d (%d groups × %d)", ErrTooManyBanks, n, c.BankGroups, c.BanksPerGroup)
	}
	if c.ClockNS <= 0 {
		return fmt.Errorf("dram: non-positive clock period %v", c.ClockNS)
	}
	if err := c.Timings[ModeDefault].Validate(); err != nil {
		return fmt.Errorf("dram: default timing set: %w", err)
	}
	return nil
}

// bank holds the per-bank scheduling state.
type bank struct {
	open  bool
	row   int
	mode  Mode // mode of the open row; meaningful only when open
	group int  // bank-group index, fixed at construction

	nextACT int64 // earliest cycle an ACT may issue
	nextPRE int64 // earliest cycle a PRE may issue
	nextRD  int64 // earliest cycle a RD may issue (bank-level: tRCD)
	nextWR  int64 // earliest cycle a WR may issue (bank-level: tRCD)

	lastColumnAccess int64 // last RD/WR issue cycle (for row-timeout policy)
	openedAt         int64 // ACT issue cycle of the open row
}

// bankGroup holds per-bank-group column timing state (tCCD_L, tWTR_L).
type bankGroup struct {
	nextRD int64
	nextWR int64
}

// Device is a cycle-accurate single-rank DRAM device. The controller drives
// it by querying CanIssue and calling Issue; Clock() advances via the
// controller's tick. All cycle values are in device (bus) clock cycles.
type Device struct {
	cfg    Config
	banks  []bank
	groups []bankGroup

	// rank-level column constraints (tCCD_S, tWTR_S, turnaround).
	rankNextRD int64
	rankNextWR int64

	// rank-level activation constraints.
	rankNextACT int64    // tRRD_S across bank groups
	groupActs   []int64  // per-group earliest next ACT (tRRD_L)
	actWindow   [4]int64 // issue cycles of the last four ACTs (tFAW)
	actWindowN  int

	// The smallest and largest tFAW over the modes: tFAW can bind only when
	// the fourth-previous ACT plus maxFAW lies past the other ACT floors,
	// and can make ACT floors differ by row only when the two differ.
	minFAW, maxFAW int64

	refBusyUntil int64 // end of an in-flight REF (tRFC)

	// openMask mirrors banks[i].open as a bitmask (bit i set ⇔ bank i open),
	// maintained on ACT/PRE/PREA; a rank has at most MaxBanks banks. It
	// answers "is any bank open" for the refresh path without a bank walk.
	openMask uint64

	clock int64

	// Statistics. These are always collected: they are plain array
	// increments on command issue (commands are orders of magnitude rarer
	// than cycles), and the per-bank/per-mode breakdowns are what the
	// observability layer (internal/metrics, sim.RunReport) reports as the
	// command mix. PREA is attributed per closed bank as a PRE in bankCmds
	// (the rank-level PREA itself still counts in CmdCounts).
	CmdCounts [numKinds]uint64
	bankCmds  [][numKinds]uint64
	modeCmds  [NumModes][numKinds]uint64
}

// NewDevice constructs a device from cfg. It panics on invalid configuration
// (construction is programmer-controlled; misconfiguration is a bug).
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Fill missing mode timing sets with the default set so a plain DDR4
	// device can be built from a single TimingSet.
	for m := 1; m < NumModes; m++ {
		if cfg.Timings[m] == (TimingSet{}) {
			cfg.Timings[m] = cfg.Timings[ModeDefault]
		}
	}
	d := &Device{
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks()),
		groups:    make([]bankGroup, cfg.BankGroups),
		groupActs: make([]int64, cfg.BankGroups),
		bankCmds:  make([][numKinds]uint64, cfg.Banks()),
	}
	for i := range d.banks {
		d.banks[i].group = i / cfg.BanksPerGroup
	}
	d.minFAW = int64(cfg.Timings[0].FAW)
	for m := range cfg.Timings {
		d.minFAW = min(d.minFAW, int64(cfg.Timings[m].FAW))
		d.maxFAW = max(d.maxFAW, int64(cfg.Timings[m].FAW))
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumBanks returns the flat bank count without copying the configuration
// (Config is a large struct; hot per-cycle paths use this instead of
// Config().Banks()).
func (d *Device) NumBanks() int { return len(d.banks) }

// Clock returns the current device cycle.
func (d *Device) Clock() int64 { return d.clock }

// Tick advances the device clock by one cycle.
func (d *Device) Tick() { d.clock++ }

// AdvanceClock advances the device clock by n cycles at once. It is exactly
// n Ticks: the clock is the only per-cycle device state, so bulk-advancing it
// is safe whenever the controller has proven no command issues in the span
// (the fast-forward path's horizon contract, DESIGN.md §9).
func (d *Device) AdvanceClock(n int64) { d.clock += n }

// modeOf resolves the operating mode of a row.
func (d *Device) modeOf(bankIdx, row int) Mode {
	if d.cfg.ModeOf == nil {
		return ModeDefault
	}
	return d.cfg.ModeOf.RowMode(bankIdx, row)
}

// timing returns the timing set for a mode.
func (d *Device) timing(m Mode) *TimingSet { return &d.cfg.Timings[m] }

// BankState reports whether the bank has an open row and which row it is.
func (d *Device) BankState(bankIdx int) (open bool, row int) {
	b := &d.banks[bankIdx]
	return b.open, b.row
}

// OpenBankMask returns the open banks as a bitmask (bit i set ⇔ bank i has
// an open row).
func (d *Device) OpenBankMask() uint64 { return d.openMask }

// OpenRowIdleSince returns the cycle of the last column access to the open
// row of a bank (or the ACT cycle if no access has happened yet). It is used
// by the controller's timeout row policy. The second return is false when
// the bank is closed.
func (d *Device) OpenRowIdleSince(bankIdx int) (int64, bool) {
	b := &d.banks[bankIdx]
	if !b.open {
		return 0, false
	}
	last := b.lastColumnAccess
	if last < b.openedAt {
		last = b.openedAt
	}
	return last, true
}

// CanIssue reports whether cmd may issue at the current cycle without
// violating any timing constraint or state requirement.
func (d *Device) CanIssue(cmd Command) bool {
	return d.EarliestIssue(cmd) <= d.clock
}

// never is the floor of a command whose state prerequisite is unmet (RD on
// a closed bank, ACT on an open one): it issues only after the controller
// first issues the prerequisite command.
const never = int64(1) << 62

// EarliestIssue returns the earliest cycle at which cmd could issue given
// current state. For commands whose state prerequisites are not met (e.g. RD
// on a closed bank), it returns a very large value; the controller must
// first transform the request into the prerequisite command. ACT, PRE, RD
// and WR answer through the per-kind floor accessors (ACTFloor, PREFloor,
// ColumnFloor), which the controller's scheduler calls directly.
func (d *Device) EarliestIssue(cmd Command) int64 {
	switch cmd.Kind {
	case KindACT:
		return d.ACTFloor(cmd.Bank, cmd.Row)
	case KindPRE:
		return d.PREFloor(cmd.Bank)
	case KindRD, KindWR:
		return d.ColumnFloor(cmd.Bank, cmd.Row, cmd.Kind == KindWR)
	case KindREF:
		// REF requires every bank precharged and past its tRP.
		t := d.refBusyUntil
		for i := range d.banks {
			b := &d.banks[i]
			if b.open {
				return never
			}
			t = max64(t, b.nextACT)
		}
		return t
	}
	if d.refBusyUntil > d.clock {
		// During tRFC nothing else may issue.
		return d.refBusyUntil
	}
	if cmd.Kind != KindPREA {
		return never
	}
	// Precharge-all: legal once every open bank may precharge; a no-op for
	// banks already closed.
	t := int64(0)
	any := false
	for i := range d.banks {
		b := &d.banks[i]
		if b.open {
			any = true
			t = max64(t, b.nextPRE)
		}
	}
	if !any {
		return d.clock // idempotent on an all-closed rank
	}
	return t
}

// The per-kind floor accessors below are EarliestIssue for one command
// kind, called directly by the scheduler's queue walk: ColumnFloor and
// PREFloor inline there. Each starts with the rank-wide tRFC rule: during a
// refresh nothing else may issue, and the floor answers clock-relatively
// with the end of the busy window.

// ColumnFloor is EarliestIssue for a RD (write false) or WR to row of bank.
func (d *Device) ColumnFloor(bank, row int, write bool) int64 {
	if d.refBusyUntil > d.clock {
		return d.refBusyUntil
	}
	b := &d.banks[bank]
	if !b.open || b.row != row {
		return never
	}
	g := &d.groups[b.group]
	if write {
		return max(b.nextWR, g.nextWR, d.rankNextWR)
	}
	return max(b.nextRD, g.nextRD, d.rankNextRD)
}

// PREFloor is EarliestIssue for a PRE to bank.
func (d *Device) PREFloor(bank int) int64 {
	if d.refBusyUntil > d.clock {
		return d.refBusyUntil
	}
	b := &d.banks[bank]
	if !b.open {
		return never
	}
	return b.nextPRE
}

// ACTFloor is EarliestIssue for an ACT of row in bank. tFAW depends on the
// row's mode, which costs a Config.ModeOf lookup; the lookup runs only when
// ACTBankFloor finds that the row can matter.
func (d *Device) ACTFloor(bank, row int) int64 {
	t, ok := d.ACTBankFloor(bank)
	if !ok {
		t = max(t, d.actWindow[d.actWindowN%4]+int64(d.timing(d.modeOf(bank, row)).FAW))
	}
	return t
}

// ACTBankFloor is ACTFloor for every row of bank at once. It reports false
// when the answer depends on the row: tFAW differs by mode and the
// fourth-previous ACT plus the largest tFAW lies past the other floors; the
// floor it then returns leaves tFAW out. Otherwise no mode's tFAW can bind,
// or every mode's binds alike.
func (d *Device) ACTBankFloor(bank int) (int64, bool) {
	if d.refBusyUntil > d.clock {
		return d.refBusyUntil, true
	}
	b := &d.banks[bank]
	if b.open {
		return never, true
	}
	t := max(b.nextACT, d.rankNextACT, d.groupActs[b.group])
	if d.actWindowN >= 4 {
		if faw := d.actWindow[d.actWindowN%4]; faw+d.maxFAW > t {
			if d.minFAW != d.maxFAW {
				return t, false
			}
			t = faw + d.maxFAW
		}
	}
	return t, true
}

// Issue applies cmd to the device state. It panics if the command cannot
// legally issue this cycle: the controller must only issue commands for
// which CanIssue returned true (issuing early is a controller bug, not a
// recoverable condition).
func (d *Device) Issue(cmd Command) {
	if e := d.EarliestIssue(cmd); e > d.clock {
		panic(fmt.Sprintf("dram: %s issued at cycle %d, earliest legal %d", cmd.Kind, d.clock, e))
	}
	now := d.clock
	switch cmd.Kind {
	case KindACT:
		m := d.modeOf(cmd.Bank, cmd.Row)
		cmd.Mode = m
		t := d.timing(m)
		b := &d.banks[cmd.Bank]
		b.open = true
		d.openMask |= 1 << uint(cmd.Bank)
		b.row = cmd.Row
		b.mode = m
		b.openedAt = now
		b.lastColumnAccess = now
		b.nextRD = now + int64(t.RCD)
		b.nextWR = now + int64(t.RCD)
		b.nextPRE = now + int64(t.RAS)
		b.nextACT = now + int64(t.RC) // same-bank ACT→ACT
		// ACT → ACT: tRRD_S rank-wide, tRRD_L within the bank group.
		d.rankNextACT = max64(d.rankNextACT, now+int64(t.RRDS))
		d.groupNextACTSet(b.group, now+int64(t.RRDL))
		d.actWindow[d.actWindowN%4] = now
		d.actWindowN++
	case KindPRE:
		b := &d.banks[cmd.Bank]
		t := d.timing(b.mode)
		cmd.Mode = b.mode
		cmd.Row = b.row
		b.open = false
		d.openMask &^= 1 << uint(cmd.Bank)
		b.nextACT = max64(b.nextACT, now+int64(t.RP))
	case KindPREA:
		for i := range d.banks {
			b := &d.banks[i]
			if !b.open {
				continue
			}
			t := d.timing(b.mode)
			b.open = false
			b.nextACT = max64(b.nextACT, now+int64(t.RP))
			d.bankCmds[i][KindPRE]++
			d.modeCmds[b.mode][KindPRE]++
		}
		d.openMask = 0
	case KindRD:
		b := &d.banks[cmd.Bank]
		t := d.timing(b.mode)
		cmd.Mode = b.mode
		b.lastColumnAccess = now
		// RD → PRE: tRTP.
		b.nextPRE = max64(b.nextPRE, now+int64(t.RTP))
		// RD → RD: tCCD_L within the group, tCCD_S across groups.
		gi := b.group
		d.groups[gi].nextRD = max64(d.groups[gi].nextRD, now+int64(t.CCDL))
		d.rankNextRD = max64(d.rankNextRD, now+int64(t.CCDS))
		// RD → WR turnaround (rank level).
		d.rankNextWR = max64(d.rankNextWR, now+int64(t.RTW))
		d.groups[gi].nextWR = max64(d.groups[gi].nextWR, now+int64(t.RTW))
	case KindWR:
		b := &d.banks[cmd.Bank]
		t := d.timing(b.mode)
		cmd.Mode = b.mode
		b.lastColumnAccess = now
		// WR → PRE: tCWL + tBL + tWR (write recovery measured from the end
		// of the data burst).
		b.nextPRE = max64(b.nextPRE, now+int64(t.CWL+t.BL+t.WR))
		// WR → WR: tCCD.
		gi := b.group
		d.groups[gi].nextWR = max64(d.groups[gi].nextWR, now+int64(t.CCDL))
		d.rankNextWR = max64(d.rankNextWR, now+int64(t.CCDS))
		// WR → RD: tCWL + tBL + tWTR.
		d.groups[gi].nextRD = max64(d.groups[gi].nextRD, now+int64(t.CWL+t.BL+t.WTRL))
		d.rankNextRD = max64(d.rankNextRD, now+int64(t.CWL+t.BL+t.WTRS))
	case KindREF:
		t := d.timing(cmd.Mode)
		d.refBusyUntil = now + int64(t.RFC)
		for i := range d.banks {
			b := &d.banks[i]
			b.nextACT = max64(b.nextACT, d.refBusyUntil)
		}
	}
	d.CmdCounts[cmd.Kind]++
	switch cmd.Kind {
	case KindACT, KindPRE, KindRD, KindWR:
		d.bankCmds[cmd.Bank][cmd.Kind]++
		d.modeCmds[cmd.Mode][cmd.Kind]++
	case KindREF:
		d.modeCmds[cmd.Mode][KindREF]++
	}
	if d.cfg.Listener != nil {
		d.cfg.Listener.OnCommand(cmd, now)
	}
}

// BankCommandCount returns how many commands of kind k issued to the given
// bank. PRE counts include per-bank closures performed by rank-level PREA.
func (d *Device) BankCommandCount(bank int, k Kind) uint64 {
	return d.bankCmds[bank][k]
}

// ModeCommandCount returns how many commands of kind k issued against rows
// of operating mode m (for ACT/PRE/RD/WR, the mode of the target row; for
// REF, the refresh stream's mode). It is the per-mode command mix of the
// paper's heterogeneous device: e.g. the high-performance share of ACTs
// directly measures how well the hot-page mapping captured the access
// stream.
func (d *Device) ModeCommandCount(m Mode, k Kind) uint64 {
	return d.modeCmds[m][k]
}

// groupNextACTSet raises the per-group tRRD_L floor for future ACTs.
func (d *Device) groupNextACTSet(group int, cycle int64) {
	if cycle > d.groupActs[group] {
		d.groupActs[group] = cycle
	}
}

// ReadLatency returns CL+BL for the mode of the open row in bank: the number
// of cycles after RD issue when the last data beat has transferred.
func (d *Device) ReadLatency(bankIdx int) int {
	b := &d.banks[bankIdx]
	t := d.timing(b.mode)
	return t.CL + t.BL
}

// WriteLatency returns CWL+BL for the open row's mode.
func (d *Device) WriteLatency(bankIdx int) int {
	b := &d.banks[bankIdx]
	t := d.timing(b.mode)
	return t.CWL + t.BL
}

// RefreshBusy reports whether a refresh is in flight at the current cycle.
func (d *Device) RefreshBusy() bool { return d.refBusyUntil > d.clock }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
