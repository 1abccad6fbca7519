package mem

import (
	"math/bits"

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
// stays exact for every scheduler; see horizon.go's file comment
// for the underestimate-only contract the floor must honor.
type Scheduler interface {
	// Name returns the scheduler's name, e.g. "frfcfs-cap".
	Name() string

	// Schedule performs one scheduling attempt over the active queue, a
	// per-bank index (queue.go), at the current cycle. If it issues a
	// command it must do so through the Controller issue helpers (issueNext,
	// or issueColumn, which also removes the served request from its bank's
	// list and re-summarises that bank) and return issued=true.
	// If nothing issues it returns issued=false and the minimum earliest-
	// issue cycle over every candidate it is willing to serve (ffNever when
	// no candidate can ever issue under frozen state) — the failed scan's
	// byproduct that publishSched installs as the schedule horizon. With
	// all state frozen but the clock, no scan before that cycle may issue:
	// the floor must never exceed the first cycle Schedule would act, and
	// every such scan must repeat the failed scan's only side effect, the
	// CapTrips it counted.
	Schedule(c *Controller, q *queue, now int64) (issued bool, minNext int64)
}

// frfcfsCap is FR-FCFS-Cap (the paper's Table 2 scheduler): row hits first,
// oldest first, with a per-bank consecutive-hit cap that stops a hit stream
// from starving an older conflicting request.
type frfcfsCap struct{}

func (frfcfsCap) Name() string { return "frfcfs-cap" }

func (frfcfsCap) Schedule(c *Controller, q *queue, now int64) (bool, int64) {
	return c.frfcfsWalk(q, now, true)
}

// frfcfsWalk is the scan behind FR-FCFS and FR-FCFS-Cap (capped selects the
// row-hit cap). It decides exactly as one walk over the queue in age order
// would (DESIGN.md §16): issue the oldest issuable row hit; otherwise the
// oldest request whose next command (a PRE for a conflict, an ACT for a
// closed bank) can issue. A hit is capped — withheld — while its bank's
// consecutive-hit streak has reached the cap and an older request waits on
// a different row of the same bank; the age-order walk counts one CapTrips
// per capped hit it passes and gives it no floor, since it stays withheld
// until some other command issues. Every other candidate that cannot issue
// folds its floor into minNext, the horizon byproduct of a failed scan.
//
// Within one queue every request is the same kind, so all hits of a bank
// share one column floor and all its conflicts one PRE floor: each bank
// stands for its requests by its oldest candidate of each class, and the
// scan visits banks, not requests. A closed bank's requests share one ACT
// floor too, unless tFAW differs by row mode and can bind; that bank's list
// is then scanned row by row. Between non-hits the oldest issuable command
// wins, so a PRE may close a row while an uncapped hit on that row waits on
// a column floor (tCCD, tWTR, a turnaround).
func (c *Controller) frfcfsWalk(q *queue, now int64, capped bool) (bool, int64) {
	minNext := int64(ffNever)
	var capMask uint64 // banks whose hits younger than their oldest conflict are capped
	if capped {
		capMask = q.hits & q.conflicts & c.atCap
	}
	bank, idx, seq := -1, 0, uint64(0) // the oldest issuable candidate so far
	take := func(b, i int) {
		if s := q.banks[b].reqs[i].seq; bank < 0 || s < seq {
			bank, idx, seq = b, i, s
		}
	}
	for m := q.hits; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		bq := &q.banks[b]
		if capMask&(1<<uint(b)) != 0 && bq.conflict < bq.hit {
			continue // every hit of the bank is capped
		}
		r := bq.reqs[bq.hit]
		if e := c.dev.ColumnFloor(b, r.decoded.Row, r.Write); e > now {
			minNext = min(minNext, e)
		} else {
			take(b, bq.hit)
		}
	}
	// The walk passes the capped hits older than the hit it issues, or all
	// of them when no hit issues.
	for m := capMask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if bank < 0 {
			c.st.CapTrips += uint64(q.banks[b].capped)
		} else {
			c.st.CapTrips += q.cappedBefore(b, seq)
		}
	}
	if bank >= 0 {
		c.issueColumn(q, bank, idx, now)
		return true, now
	}
	for m := q.conflicts; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if e := c.dev.PREFloor(b); e > now {
			minNext = min(minNext, e)
		} else {
			take(b, q.banks[b].conflict)
		}
	}
	for m := q.nonEmpty &^ (q.hits | q.conflicts); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		e, i := c.actCandidate(&q.banks[b], b, now)
		if e > now {
			minNext = min(minNext, e)
		} else {
			take(b, i)
		}
	}
	if bank < 0 {
		return false, minNext
	}
	c.issueNext(q, bank, idx, now)
	return true, now
}

// actCandidate returns the ACT floor of closed bank b's oldest request and
// its index, or, when tFAW makes the floor depend on the row, those of the
// oldest request whose floor is due, or else the least floor of any.
func (c *Controller) actCandidate(bq *bankQueue, b int, now int64) (int64, int) {
	if e, ok := c.dev.ACTBankFloor(b); ok {
		return e, 0
	}
	least := int64(ffNever)
	for i, r := range bq.reqs {
		e := c.dev.ACTFloor(b, r.decoded.Row)
		if e <= now {
			return e, i
		}
		least = min(least, e)
	}
	return least, 0
}

// frfcfs is FR-FCFS without the row-hit cap: row hits always win over older
// conflicting requests. The starvation bound the cap provides is gone —
// exactly the behavior difference C9-style sweeps quantify against the
// default.
type frfcfs struct{}

func (frfcfs) Name() string { return "frfcfs" }

func (frfcfs) Schedule(c *Controller, q *queue, now int64) (bool, int64) {
	return c.frfcfsWalk(q, now, false)
}

// fcfs serves strictly in arrival order: only the oldest request of the
// active queue is a candidate, and the command it needs next (ACT, PRE or
// the column access) is the only command considered. The degenerate
// baseline every scheduling paper compares against.
type fcfs struct{}

func (fcfs) Name() string { return "fcfs" }

func (fcfs) Schedule(c *Controller, q *queue, now int64) (bool, int64) {
	b := q.oldest()
	if e := c.commandFloor(q.banks[b].reqs[0]); e > now {
		return false, e
	}
	c.issueNext(q, b, 0, now)
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

// issueNext issues the command that request i of bank's list in q needs next
// — its column access, the PRE of a conflicting open row, or the ACT of a
// closed bank. The caller has checked that the command's floor is due.
func (c *Controller) issueNext(q *queue, bank, i int, now int64) {
	req := q.banks[bank].reqs[i]
	switch open, row := c.dev.BankState(bank); {
	case open && row == req.decoded.Row:
		c.issueColumn(q, bank, i, now)
		return
	case open:
		c.classify(req, &c.st.RowBuffer.Conflicts)
		c.dev.Issue(dram.Command{Kind: dram.KindPRE, Bank: bank})
	default:
		c.classify(req, &c.st.RowBuffer.Misses)
		c.dev.Issue(dram.Command{Kind: dram.KindACT, Bank: bank, Row: req.decoded.Row})
	}
	c.rowChanged(bank)
	c.dirtyBank(bank)
}
