package dram

import "fmt"

// Constraint names the timing rule (or state prerequisite) that blocks a
// command from issuing. It exists for observability: when the controller
// fails to issue anything in a cycle (or skips a span of such cycles), it
// asks ConstraintSpan which rule is binding, and accumulates a stall
// breakdown per constraint. The classification is advisory — scheduling
// decisions never depend on it.
type Constraint uint8

// Blocking constraints, from "not blocked" through the specific DDR4 rule
// families. The grouping matches how the device tracks its floors: per-bank
// (one next-cycle floor per command class), per-bank-group, and rank-wide.
const (
	// ConstraintNone: the command may issue this cycle.
	ConstraintNone Constraint = iota
	// ConstraintState: the bank is in the wrong state (e.g. RD on a closed
	// bank); the controller must first issue the prerequisite command.
	ConstraintState
	// ConstraintRefresh: an in-flight REF occupies the rank (tRFC).
	ConstraintRefresh
	// ConstraintBank: a per-bank floor is binding — tRC/tRP before ACT,
	// tRAS/tRTP/write recovery before PRE, or tRCD before RD/WR.
	ConstraintBank
	// ConstraintRankACT: rank-wide ACT→ACT spacing (tRRD_S).
	ConstraintRankACT
	// ConstraintGroupACT: same-bank-group ACT→ACT spacing (tRRD_L).
	ConstraintGroupACT
	// ConstraintFAW: the four-activate window (tFAW).
	ConstraintFAW
	// ConstraintGroupColumn: same-bank-group column spacing (tCCD_L,
	// tWTR_L, or same-group read↔write turnaround).
	ConstraintGroupColumn
	// ConstraintRankColumn: rank-wide column spacing (tCCD_S, tWTR_S, or
	// rank read↔write turnaround).
	ConstraintRankColumn

	// NumConstraints sizes constraint-indexed tables.
	NumConstraints
)

// String returns a short stable identifier (used as a metric-name suffix).
func (c Constraint) String() string {
	switch c {
	case ConstraintNone:
		return "none"
	case ConstraintState:
		return "state"
	case ConstraintRefresh:
		return "refresh"
	case ConstraintBank:
		return "bank"
	case ConstraintRankACT:
		return "rank_act"
	case ConstraintGroupACT:
		return "group_act"
	case ConstraintFAW:
		return "faw"
	case ConstraintGroupColumn:
		return "group_col"
	case ConstraintRankColumn:
		return "rank_col"
	default:
		return fmt.Sprintf("Constraint(%d)", uint8(c))
	}
}

// ConstraintSpan classifies a span of no-issue cycles for cmd, assuming the
// device state stays frozen (no command issues, only the clock advances):
// cycles before refUntil classify ConstraintRefresh (the rank-wide tRFC
// prefix; always 0 for REF, which folds tRFC into its floor), cycles in
// [refUntil, floor) classify why — the latest-expiring floor, the binding
// constraint — and cycles at or past floor classify ConstraintNone (cmd may
// issue). With frozen state all three values are constants, so the
// per-cycle classification over the span has at most three segments; a
// span of one cycle is the classification of the current cycle.
//
// This deliberately mirrors EarliestIssue rather than being folded into it:
// the per-kind floors behind EarliestIssue run on the scheduler's hot path
// for every queued request every cycle, while this classification is only
// computed on cycles the controller issues nothing and stall accounting is
// enabled. Keeping them separate keeps the argmax bookkeeping off the hot
// path entirely.
func (d *Device) ConstraintSpan(cmd Command) (refUntil, floor int64, why Constraint) {
	if cmd.Kind != KindREF {
		refUntil = d.refBusyUntil
	}
	floor, why = d.constraintFloor(cmd)
	return refUntil, floor, why
}

// constraintFloor returns the latest-expiring timing floor for cmd and the
// constraint that owns it, ignoring the rank-wide tRFC prefix rule (callers
// layer that on). Commands whose state prerequisites are unmet get a
// never-expiring ConstraintState floor: with bank state frozen, that
// classification cannot change until the controller acts.
func (d *Device) constraintFloor(cmd Command) (int64, Constraint) {
	t, why := int64(0), ConstraintNone
	raise := func(floor int64, c Constraint) {
		if floor > t {
			t, why = floor, c
		}
	}
	switch cmd.Kind {
	case KindACT:
		b := &d.banks[cmd.Bank]
		if b.open {
			return never, ConstraintState
		}
		raise(b.nextACT, ConstraintBank)
		raise(d.rankNextACT, ConstraintRankACT)
		raise(d.groupActs[b.group], ConstraintGroupACT)
		if d.actWindowN >= 4 {
			m := d.modeOf(cmd.Bank, cmd.Row)
			raise(d.actWindow[d.actWindowN%4]+int64(d.timing(m).FAW), ConstraintFAW)
		}
	case KindPRE:
		b := &d.banks[cmd.Bank]
		if !b.open {
			return never, ConstraintState
		}
		raise(b.nextPRE, ConstraintBank)
	case KindPREA:
		for i := range d.banks {
			if b := &d.banks[i]; b.open {
				raise(b.nextPRE, ConstraintBank)
			}
		}
	case KindRD:
		b := &d.banks[cmd.Bank]
		if !b.open || b.row != cmd.Row {
			return never, ConstraintState
		}
		raise(b.nextRD, ConstraintBank)
		raise(d.groups[b.group].nextRD, ConstraintGroupColumn)
		raise(d.rankNextRD, ConstraintRankColumn)
	case KindWR:
		b := &d.banks[cmd.Bank]
		if !b.open || b.row != cmd.Row {
			return never, ConstraintState
		}
		raise(b.nextWR, ConstraintBank)
		raise(d.groups[b.group].nextWR, ConstraintGroupColumn)
		raise(d.rankNextWR, ConstraintRankColumn)
	case KindREF:
		raise(d.refBusyUntil, ConstraintRefresh)
		for i := range d.banks {
			b := &d.banks[i]
			if b.open {
				return never, ConstraintState
			}
			raise(b.nextACT, ConstraintBank)
		}
	default:
		return never, ConstraintState
	}
	return t, why
}
