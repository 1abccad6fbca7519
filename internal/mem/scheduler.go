package mem

import (
	"clrdram/internal/dram"
)

// A Scheduler is the command-selection policy of a Controller: on each cycle
// without a refresh in the way, Tick hands it the active queue and it may
// issue at most one command. Implementations are stateless — all scheduling
// state they need (queues, hit streaks, bank states) lives on the Controller,
// which keeps a scheduler swap free of migration concerns and lets one
// instance serve many controllers.
//
// Schedule's failed scan is also the horizon hook: its floor and the
// CapTrips it counted become the schedule memo, which the dead cycles up to
// that floor replay instead of rescanning, so the fast-forward machinery
// stays exact for every registered scheduler; see horizon.go's file comment
// for the underestimate-only contract the floor must honor.
type Scheduler interface {
	// Name returns the registry name, e.g. "frfcfs-cap".
	Name() string

	// Schedule performs one scheduling attempt over the active queue at the
	// current cycle. If it issues a command it must do so through the
	// Controller issue helpers (issueColumn also removes the finished
	// request from q) and return issued=true.
	// If nothing issues it returns issued=false and the minimum earliest-
	// issue cycle over every candidate it is willing to serve (ffNever when
	// no candidate can ever issue under frozen state) — the failed scan's
	// byproduct that publishSched installs as the schedule horizon. With
	// all state frozen but the clock, no scan before that cycle may issue:
	// the floor must never exceed the first cycle Schedule would act, and
	// every such scan must repeat the failed scan's only side effect, the
	// CapTrips it counted.
	Schedule(c *Controller, q *[]*Request, now int64) (issued bool, minNext int64)
}

// frfcfsCap is FR-FCFS-Cap (the paper's Table 2 scheduler): row hits first,
// oldest first, with a per-bank consecutive-hit cap that stops a hit stream
// from starving an older conflicting request.
type frfcfsCap struct{}

func (frfcfsCap) Name() string { return "frfcfs-cap" }

func (frfcfsCap) Schedule(c *Controller, q *[]*Request, now int64) (bool, int64) {
	return c.frfcfsWalk(q, now, true)
}

// frfcfsWalk is the scan behind FR-FCFS and FR-FCFS-Cap (capped selects the
// row-hit cap): one walk over q in age order. It issues the first issuable
// row hit the moment it reaches it; otherwise, after the walk, it issues the
// command of the first request whose next command (a PRE for a conflict, an
// ACT for a closed bank) can issue now. A hit is capped — withheld — while
// its bank's consecutive-hit streak has reached the cap and an older request
// waits on a different row of the same bank; the walk counts one CapTrips
// per capped hit it passes and gives it no floor, since it stays withheld
// until some other command issues. Every other candidate that cannot issue
// folds its floor into minNext, the horizon byproduct of a failed scan.
//
// This is exactly the textbook two passes, row hits first and then every
// request's next command oldest first: nothing changes state between them,
// so an uncapped hit that the first pass cannot issue cannot issue in the
// second either, which therefore issues the oldest issuable non-hit, and
// both count the same CapTrips and floors. Between non-hits the oldest
// issuable command wins, so a PRE may close a row while an uncapped hit on
// that row waits on a column floor (tCCD, tWTR, a turnaround): the walk
// does not hold a PRE back for timing-blocked hits.
func (c *Controller) frfcfsWalk(q *[]*Request, now int64, capped bool) (bool, int64) {
	minNext, first := int64(ffNever), -1
	for i, req := range *q {
		bank := req.decoded.Bank
		open, row := c.dev.BankState(bank)
		var e int64
		switch {
		case open && row == req.decoded.Row:
			if capped && c.hitStreak[bank] >= c.cfg.RowHitCap && c.olderConflictExists(*q, i) {
				c.st.CapTrips++
				continue
			}
			if e = c.dev.ColumnFloor(bank, row, req.Write); e <= now {
				c.issueColumn(q, i, now)
				return true, now
			}
		case first >= 0:
			continue // an older non-hit issues unless a later hit does
		case open:
			e = c.dev.PREFloor(bank)
		default:
			e = c.dev.ACTFloor(bank, req.decoded.Row)
		}
		if e <= now {
			first = i
		} else {
			minNext = min(minNext, e)
		}
	}
	if first < 0 {
		return false, minNext
	}
	c.issueNext(q, first, now)
	return true, now
}

// frfcfs is FR-FCFS without the row-hit cap: row hits always win over older
// conflicting requests. The starvation bound the cap provides is gone —
// exactly the behavior difference C9-style sweeps quantify against the
// default.
type frfcfs struct{}

func (frfcfs) Name() string { return "frfcfs" }

func (frfcfs) Schedule(c *Controller, q *[]*Request, now int64) (bool, int64) {
	return c.frfcfsWalk(q, now, false)
}

// fcfs serves strictly in arrival order: only the oldest request of the
// active queue is a candidate, and the command it needs next (ACT, PRE or
// the column access) is the only command considered. The degenerate
// baseline every scheduling paper compares against.
type fcfs struct{}

func (fcfs) Name() string { return "fcfs" }

func (fcfs) Schedule(c *Controller, q *[]*Request, now int64) (bool, int64) {
	if e := c.commandFloor((*q)[0]); e > now {
		return false, e
	}
	c.issueNext(q, 0, now)
	return true, now
}

// commandFloor returns the earliest cycle the command req needs next could
// issue under frozen device state: its column access, the PRE of a
// conflicting open row, or the ACT of a closed bank.
func (c *Controller) commandFloor(req *Request) int64 {
	switch open, row := c.dev.BankState(req.decoded.Bank); {
	case open && row == req.decoded.Row:
		return c.dev.ColumnFloor(req.decoded.Bank, row, req.Write)
	case open:
		return c.dev.PREFloor(req.decoded.Bank)
	default:
		return c.dev.ACTFloor(req.decoded.Bank, req.decoded.Row)
	}
}

// issueNext issues the command q[i] needs next — its column access, the PRE
// of a conflicting open row, or the ACT of a closed bank. The caller has
// checked that the command's floor is due.
func (c *Controller) issueNext(q *[]*Request, i int, now int64) {
	req := (*q)[i]
	bank := req.decoded.Bank
	switch open, row := c.dev.BankState(bank); {
	case open && row == req.decoded.Row:
		c.issueColumn(q, i, now)
	case open:
		c.classify(req, &c.st.RowBuffer.Conflicts)
		c.dev.Issue(dram.Command{Kind: dram.KindPRE, Bank: bank})
		c.resetStreak(bank)
		c.openRowQueued[bank] = 0
		c.dirtyBank(bank)
	default:
		c.classify(req, &c.st.RowBuffer.Misses)
		c.dev.Issue(dram.Command{Kind: dram.KindACT, Bank: bank, Row: req.decoded.Row})
		c.resetStreak(bank)
		c.recountOpenRow(bank, req.decoded.Row)
		c.dirtyBank(bank)
	}
}
