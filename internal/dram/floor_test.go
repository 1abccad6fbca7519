package dram

import (
	"math/rand"
	"testing"
)

// refEarliestIssue is EarliestIssue written as one switch over the command
// kind, with the bank group recomputed from the flat bank index and the row
// mode looked up for every ACT once four ACTs have issued: the reference the
// per-kind floor accessors must match.
func refEarliestIssue(d *Device, cmd Command) int64 {
	if d.refBusyUntil > d.clock && cmd.Kind != KindREF {
		return d.refBusyUntil
	}
	group := cmd.Bank / d.cfg.BanksPerGroup
	switch cmd.Kind {
	case KindACT:
		b := &d.banks[cmd.Bank]
		if b.open {
			return never
		}
		t := max(b.nextACT, d.rankNextACT, d.groupActs[group])
		if d.actWindowN >= 4 {
			m := d.modeOf(cmd.Bank, cmd.Row)
			t = max(t, d.actWindow[d.actWindowN%4]+int64(d.timing(m).FAW))
		}
		return t
	case KindPRE:
		if b := &d.banks[cmd.Bank]; b.open {
			return b.nextPRE
		}
		return never
	case KindPREA:
		t, any := int64(0), false
		for i := range d.banks {
			if b := &d.banks[i]; b.open {
				any = true
				t = max(t, b.nextPRE)
			}
		}
		if !any {
			return d.clock
		}
		return t
	case KindRD, KindWR:
		b := &d.banks[cmd.Bank]
		if !b.open || b.row != cmd.Row {
			return never
		}
		g := &d.groups[group]
		if cmd.Kind == KindWR {
			return max(b.nextWR, g.nextWR, d.rankNextWR)
		}
		return max(b.nextRD, g.nextRD, d.rankNextRD)
	case KindREF:
		t := d.refBusyUntil
		for i := range d.banks {
			b := &d.banks[i]
			if b.open {
				return never
			}
			t = max(t, b.nextACT)
		}
		return t
	default:
		return never
	}
}

// TestFloorAccessorsMatchReference drives a CLR device (rows alternating
// between the two modes, the high-performance tFAW stretched so the row's
// mode decides whether tFAW binds) through a random legal command workout
// with refreshes, and checks every cycle that EarliestIssue and the
// per-kind accessors equal the reference for every kind on every bank,
// against the open row and against other rows. ACTBankFloor, where it
// answers for every row at once, must equal the reference for each.
func TestFloorAccessorsMatchReference(t *testing.T) {
	cfg := clrConfig(modeByRow{})
	cfg.Timings[ModeHighPerf].FAW += 12
	d := NewDevice(cfg)
	rng := rand.New(rand.NewSource(3))
	kinds := []Kind{KindACT, KindPRE, KindRD, KindWR, KindPREA, KindREF}
	refreshing := false
	rowDependent := 0 // ACTBankFloor answers that the row decides
	for step := 0; step < 20_000; step++ {
		for bank := range d.banks {
			for _, row := range []int{d.banks[bank].row, rng.Intn(6)} {
				for _, k := range kinds {
					cmd := Command{Kind: k, Bank: bank, Row: row}
					want := refEarliestIssue(d, cmd)
					if got := d.EarliestIssue(cmd); got != want {
						t.Fatalf("cycle %d: EarliestIssue(%+v) = %d, reference %d", d.clock, cmd, got, want)
					}
					got := want
					switch k {
					case KindACT:
						got = d.ACTFloor(bank, row)
						if bf, ok := d.ACTBankFloor(bank); !ok {
							rowDependent++
						} else if bf != want {
							t.Fatalf("cycle %d: ACTBankFloor(%d) = %d, reference %d for row %d",
								d.clock, bank, bf, want, row)
						}
					case KindPRE:
						got = d.PREFloor(bank)
					case KindRD, KindWR:
						got = d.ColumnFloor(bank, row, k == KindWR)
					}
					if got != want {
						t.Fatalf("cycle %d: %v floor accessor for bank %d row %d = %d, reference %d",
							d.clock, k, bank, row, got, want)
					}
				}
			}
		}
		// Issue one random legal command, then advance one or a few
		// cycles. Now and then a refresh starts: PREA, then REF once legal.
		cmd := Command{Kind: kinds[rng.Intn(4)], Bank: rng.Intn(len(d.banks)), Row: rng.Intn(6)}
		if cmd.Kind == KindRD || cmd.Kind == KindWR {
			cmd.Row = d.banks[cmd.Bank].row
		}
		if refreshing = refreshing || rng.Intn(300) == 0; refreshing {
			cmd = Command{Kind: KindREF, Mode: ModeMaxCap}
			if d.openMask != 0 {
				cmd = Command{Kind: KindPREA}
			}
		}
		if d.CanIssue(cmd) {
			d.Issue(cmd)
			refreshing = refreshing && cmd.Kind != KindREF
		}
		d.AdvanceClock(1 + int64(rng.Intn(3)))
	}
	if d.CmdCounts[KindREF] == 0 || d.CmdCounts[KindACT] < 500 || rowDependent == 0 {
		t.Fatalf("weak workout: command counts %v, %d row-dependent ACT floors", d.CmdCounts, rowDependent)
	}
}
