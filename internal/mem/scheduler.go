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
// The horizon hooks (CandidateIssue, DeadCycleTrips) are what lets the
// fast-forward machinery stay exact for every registered scheduler instead
// of being gated to the default one; see horizon.go's file comment for the
// underestimate-only contract they must honor.
type Scheduler interface {
	// Name returns the registry name, e.g. "frfcfs-cap".
	Name() string

	// Schedule performs one scheduling attempt over the active queue at the
	// current cycle. If it issues a command it must remove the finished
	// request (for column commands) via c.removeAt, perform the usual issue
	// bookkeeping (the Controller issue helpers do), and return issued=true.
	// If nothing issues it returns issued=false and the minimum earliest-
	// issue cycle over every candidate it is willing to serve (ffNever when
	// no candidate can ever issue under frozen state) — the failed scan's
	// byproduct that publishSched installs as the schedule horizon.
	Schedule(c *Controller, q *[]*Request, now int64) (issued bool, minNext int64)

	// CandidateIssue returns the earliest cycle the scheduler could issue a
	// command for q[i] with all controller and device state frozen, or
	// ffNever when the scheduler withholds the request until some other
	// event intervenes (a dirtying event that drops the memo). It must never
	// return a cycle later than Schedule would act on the request — horizons
	// may only be underestimates.
	CandidateIssue(c *Controller, q []*Request, i int, req *Request) int64

	// DeadCycleTrips returns the scheduler's per-cycle stat side effect on a
	// cycle whose scan is known to fail (every candidate floor in the
	// future): the number of CapTrips counted per scanned cycle. SkipTicks
	// replays this over dead spans so skipped and ticked runs agree counter
	// for counter. Schedulers without such a side effect return 0.
	DeadCycleTrips(c *Controller, q []*Request) int64
}

// frfcfsCap is FR-FCFS-Cap (the paper's Table 2 scheduler): row hits first,
// oldest first, with a per-bank consecutive-hit cap that stops a hit stream
// from starving an older conflicting request.
type frfcfsCap struct{}

func (frfcfsCap) Name() string { return "frfcfs-cap" }

func (frfcfsCap) Schedule(c *Controller, q *[]*Request, now int64) (bool, int64) {
	// Pass 1 — row hits, oldest first, unless the bank's consecutive-hit
	// streak has reached the cap while an older request waits on a
	// different row of the same bank (the "Cap" in FR-FCFS-Cap, which
	// bounds inter-thread row-hit starvation). Failed candidates here are
	// re-examined (and re-accumulated) by pass 2, so only that pass feeds
	// the horizon byproduct.
	for i, req := range *q {
		open, row := c.dev.BankState(req.decoded.Bank)
		if !open || row != req.decoded.Row {
			continue
		}
		if c.hitStreak[req.decoded.Bank] >= c.cfg.RowHitCap && c.olderConflictExists(*q, i) {
			c.st.CapTrips++
			continue
		}
		if issued, _ := c.issueColumn(req, now); issued {
			c.removeAt(q, i)
			return true, now
		}
	}

	// Pass 2 — oldest first, issue whatever command the request needs next.
	minNext := int64(ffNever)
	for i, req := range *q {
		open, row := c.dev.BankState(req.decoded.Bank)
		switch {
		case open && row == req.decoded.Row:
			// Respect the cap here too: if the bank's hit streak is
			// exhausted and an older conflicting request is waiting (e.g.
			// for tRAS before its PRE), serving this hit would starve it.
			// A withheld hit stays withheld until another command issues,
			// so it contributes nothing to the horizon.
			if c.hitStreak[req.decoded.Bank] >= c.cfg.RowHitCap && c.olderConflictExists(*q, i) {
				continue
			}
			issued, e := c.issueColumn(req, now)
			if issued {
				c.removeAt(q, i)
				return true, now
			}
			minNext = min(minNext, e)
		case open: // conflict: need PRE
			// Do not close a row that still has queued row hits that have
			// not exhausted the cap — pass 1 will serve them first.
			issued, e := c.issuePRE(req, now)
			if issued {
				return true, now
			}
			minNext = min(minNext, e)
		default: // closed: need ACT
			issued, e := c.issueACT(req, now)
			if issued {
				return true, now
			}
			minNext = min(minNext, e)
		}
	}
	return false, minNext
}

func (frfcfsCap) CandidateIssue(c *Controller, q []*Request, i int, req *Request) int64 {
	open, row := c.dev.BankState(req.decoded.Bank)
	if open && row == req.decoded.Row &&
		c.hitStreak[req.decoded.Bank] >= c.cfg.RowHitCap && c.olderConflictExists(q, i) {
		return ffNever
	}
	return c.commandFloorState(req, open, row)
}

// DeadCycleTrips counts the row hits in q that pass 1 skips with a CapTrips
// increment: streak at the cap with an older conflicting request waiting.
// The common case — no bank's streak at the cap — answers from the atCap
// counter without touching the queue.
func (frfcfsCap) DeadCycleTrips(c *Controller, q []*Request) int64 {
	if c.atCap == 0 {
		return 0
	}
	var n int64
	for i, req := range q {
		open, row := c.dev.BankState(req.decoded.Bank)
		if !open || row != req.decoded.Row {
			continue
		}
		if c.hitStreak[req.decoded.Bank] >= c.cfg.RowHitCap && c.olderConflictExists(q, i) {
			n++
		}
	}
	return n
}

// frfcfs is FR-FCFS without the row-hit cap: row hits always win over older
// conflicting requests. The starvation bound the cap provides is gone —
// exactly the behavior difference C9-style sweeps quantify against the
// default.
type frfcfs struct{}

func (frfcfs) Name() string { return "frfcfs" }

func (frfcfs) Schedule(c *Controller, q *[]*Request, now int64) (bool, int64) {
	for i, req := range *q {
		open, row := c.dev.BankState(req.decoded.Bank)
		if !open || row != req.decoded.Row {
			continue
		}
		if issued, _ := c.issueColumn(req, now); issued {
			c.removeAt(q, i)
			return true, now
		}
	}
	minNext := int64(ffNever)
	for i, req := range *q {
		open, row := c.dev.BankState(req.decoded.Bank)
		switch {
		case open && row == req.decoded.Row:
			issued, e := c.issueColumn(req, now)
			if issued {
				c.removeAt(q, i)
				return true, now
			}
			minNext = min(minNext, e)
		case open:
			issued, e := c.issuePRE(req, now)
			if issued {
				return true, now
			}
			minNext = min(minNext, e)
		default:
			issued, e := c.issueACT(req, now)
			if issued {
				return true, now
			}
			minNext = min(minNext, e)
		}
	}
	return false, minNext
}

func (frfcfs) CandidateIssue(c *Controller, q []*Request, i int, req *Request) int64 {
	return c.commandFloor(req)
}

func (frfcfs) DeadCycleTrips(*Controller, []*Request) int64 { return 0 }

// fcfs serves strictly in arrival order: only the oldest request of the
// active queue is a candidate, and the command it needs next (ACT, PRE or
// the column access) is the only command considered. The degenerate
// baseline every scheduling paper compares against.
type fcfs struct{}

func (fcfs) Name() string { return "fcfs" }

func (fcfs) Schedule(c *Controller, q *[]*Request, now int64) (bool, int64) {
	req := (*q)[0]
	open, row := c.dev.BankState(req.decoded.Bank)
	switch {
	case open && row == req.decoded.Row:
		issued, e := c.issueColumn(req, now)
		if issued {
			c.removeAt(q, 0)
			return true, now
		}
		return false, e
	case open:
		issued, e := c.issuePRE(req, now)
		return issued, e
	default:
		issued, e := c.issueACT(req, now)
		return issued, e
	}
}

func (fcfs) CandidateIssue(c *Controller, q []*Request, i int, req *Request) int64 {
	if i > 0 {
		return ffNever // only the head can issue; a head change dirties the memo
	}
	return c.commandFloor(req)
}

func (fcfs) DeadCycleTrips(*Controller, []*Request) int64 { return 0 }

// commandFloor returns the earliest cycle the command req needs next could
// issue under frozen device state, with no scheduler-specific withholding
// applied. Scheduler CandidateIssue implementations layer their own
// withholding (cap, strict ordering) on top of it.
func (c *Controller) commandFloor(req *Request) int64 {
	open, row := c.dev.BankState(req.decoded.Bank)
	return c.commandFloorState(req, open, row)
}

// commandFloorState is commandFloor with the bank state already looked up —
// for CandidateIssue implementations that need the state for their own
// withholding check and must not pay a second BankState per candidate (the
// horizon rescan runs this once per queued request).
func (c *Controller) commandFloorState(req *Request, open bool, row int) int64 {
	switch {
	case open && row == req.decoded.Row:
		kind := dram.KindRD
		if req.Write {
			kind = dram.KindWR
		}
		return c.dev.EarliestIssue(dram.Command{Kind: kind, Bank: req.decoded.Bank, Row: req.decoded.Row, Column: req.decoded.Column})
	case open:
		return c.dev.EarliestIssue(dram.Command{Kind: dram.KindPRE, Bank: req.decoded.Bank})
	default:
		return c.dev.EarliestIssue(dram.Command{Kind: dram.KindACT, Bank: req.decoded.Bank, Row: req.decoded.Row})
	}
}

// issuePRE issues the precharge req is waiting on if timing allows,
// performing the shared bookkeeping (conflict classification, streak reset,
// open-row count, horizon dirtying). Returns whether it issued and, when it
// did not, the earliest cycle it could.
func (c *Controller) issuePRE(req *Request, now int64) (bool, int64) {
	cmd := dram.Command{Kind: dram.KindPRE, Bank: req.decoded.Bank}
	if e := c.dev.EarliestIssue(cmd); e > now {
		return false, e
	}
	c.classify(req, &c.st.RowBuffer.Conflicts)
	c.dev.Issue(cmd)
	c.resetStreak(req.decoded.Bank)
	c.openRowQueued[req.decoded.Bank] = 0
	c.dirtyBank(req.decoded.Bank)
	return true, now
}

// issueACT issues the activate req is waiting on if timing allows; the
// counterpart of issuePRE for closed banks.
func (c *Controller) issueACT(req *Request, now int64) (bool, int64) {
	cmd := dram.Command{Kind: dram.KindACT, Bank: req.decoded.Bank, Row: req.decoded.Row}
	if e := c.dev.EarliestIssue(cmd); e > now {
		return false, e
	}
	c.classify(req, &c.st.RowBuffer.Misses)
	c.dev.Issue(cmd)
	c.resetStreak(req.decoded.Bank)
	c.recountOpenRow(req.decoded.Bank, req.decoded.Row)
	c.dirtyBank(req.decoded.Bank)
	return true, now
}
