package mem

import (
	"clrdram/internal/dram"
)

// This file is the controller's half of the system simulator's next-event
// fast-forward path (DESIGN.md §9, §13). NextEventCycle returns a safe lower
// bound on the first future device cycle at which Tick would do anything
// other than advance the clock; SkipTicks then replays a span of such dead
// cycles in bulk, bit-identically to ticking through them — FR-FCFS-Cap
// trip counting and the per-cycle observability samples included. Each
// controller rule is written once and serves both: the row-close entries
// are RowPolicy.BankCloseCycle, which tickRowClose also closes by; the
// schedule memo is what the last failed scan returned and counted; the
// refresh arm cycle searches tickRefresh's own predicate (refArmed); and a
// skipped span records the samples Tick records on a cycle without an issue
// (observe).
//
// The horizon contract: during a span in which no request arrives and the
// horizon has not been reached, every piece of state the per-cycle Tick
// reads is frozen (queues, bank states, timing floors, refresh schedule,
// hit streaks, the draining flag) except the clock. Horizons may only ever
// be UNDERESTIMATES: a too-small horizon costs real ticks, a too-large one
// would skip an action and diverge.
//
// The draining flag is frozen because a horizon ahead of the clock is a
// settled one (HorizonSettled): either an armed refresh, which suppresses
// scheduling and with it the hysteresis step, or a schedule memo, which
// publishSched installs only at a drain fixpoint and which every queue or
// flag change drops. Under frozen queue lengths a fixpoint stays one, so
// every skipped cycle scans the same queue. The hysteresis has one other
// regime — period-2 oscillation while the read queue is empty and the
// write queue sits in (0, WriteLow] — in which the memo stays invalid and
// no span can start; SkipTicks panics if asked to start one there.
//
// The horizon is maintained INCREMENTALLY: instead of one whole-horizon memo
// dropped on any state change, each component keeps its own memo and the
// event sites dirty exactly the components they can move (dirtySched,
// dirtyBank, dirtyAllHorizon in controller.go's Tick machinery). On the
// high-MPKI profiles CLR-DRAM targets, most events touch one bank and one
// queue — the old invalidate-and-rescan scheme rebuilt the full per-bank
// timeout scan and queue walk on every one of them, which made skip planning
// a net loss exactly where the paper's evaluation lives.
//
// Memoised components are functions of frozen controller/device state with
// one exception: dram.Device.EarliestIssue answers clock-relatively during a
// refresh's tRFC (it returns refBusyUntil instead of the per-bank floors).
// Such a memo can sit BELOW what a fresh scan at a later clock would return,
// which is safe — underestimates only cost real ticks — and self-heals: a
// component at or below the current clock is always recomputed before use
// ("recompute on reach").

// ffNever is the horizon of a controller with no future events of its own.
const ffNever = int64(1) << 62

// NextEventCycle assembles the horizon from its per-component memos,
// recomputing only components that were dirtied or reached. The returned
// cycle is never before the device clock; it equals the clock when an
// action may be imminent — an event is due, or the schedule memo is
// unsettled — and the caller then takes a real tick.
func (c *Controller) NextEventCycle() int64 {
	now := c.dev.Clock()
	h := ffNever
	if c.completions.Len() > 0 {
		h = c.completions.Peek().cycle
		if h <= now {
			return now
		}
	}
	if c.refPending != -1 {
		// An armed refresh suppresses request scheduling and stream arming;
		// the only scheduler-side action left is its PREA (if any bank is
		// open) or the REF itself. EarliestIssue during tRFC returns a lower
		// bound, which is fine: the recompute after the skip sees the floors.
		if c.dev.OpenBankMask() != 0 {
			h = min(h, c.dev.EarliestIssue(dram.Command{Kind: dram.KindPREA}))
		} else {
			ref := dram.Command{Kind: dram.KindREF, Mode: c.cfg.Refresh[c.refPending].Mode}
			h = min(h, c.dev.EarliestIssue(ref))
		}
		h = min(h, c.rowCloseComponent(now))
		return max(h, now)
	}
	// Arming a refresh stream changes refPending — an action even when no
	// command issues that cycle (it gates scheduling from then on).
	pending := c.Pending() > 0
	for i := range c.refNext {
		h = min(h, c.refArmCycle(i, now, pending))
	}
	if h <= now {
		return now
	}
	// tickRowClose runs on every cycle without an issued command — also
	// while a refresh is armed but not yet issuable.
	h = min(h, c.rowCloseComponent(now))
	if h <= now {
		return now
	}
	h = min(h, c.schedComponent(now))
	return max(h, now)
}

// HorizonSettled reports whether NextEventCycle currently has a real answer
// for the schedule component: either the last scheduler scan failed and
// published its candidate floors (publishSched), or an armed refresh
// suppresses scheduling entirely (the refresh branch derives the horizon
// without the memo). While unsettled — right after a command issue or an
// enqueue, or in the oscillating drain regime — NextEventCycle degrades to
// "imminent", so a planning attempt cannot find a useful span; the simulator
// checks this first and real-steps until the next failed scan settles the
// memo, which costs at most the few CPU cycles to the next device tick.
func (c *Controller) HorizonSettled() bool {
	return c.ffSchedValid || c.refPending != -1
}

// HorizonGen returns a generation counter that advances whenever controller
// or device state changes in a way NextEventCycle's answer could depend on:
// request arrival, command issue, completion delivery, refresh arming and
// retiming, draining flips, and external invalidation. While the counter is
// unchanged and the clock sits strictly below a previously returned horizon,
// that horizon is still a valid lower bound — the simulator's fast-forward
// planner uses this to cache one joint horizon across all channels instead
// of re-querying every controller on every planning attempt.
func (c *Controller) HorizonGen() uint64 { return c.ffGen }

// InvalidateHorizon drops every memoised horizon component. The simulator
// calls it after mutating device state behind the controller's back (dynamic
// CLR-DRAM reconfiguration changes row modes, and with them every timing
// lookup the horizon was computed from).
func (c *Controller) InvalidateHorizon() { c.dirtyAllHorizon() }

// dirtySched invalidates the schedule memo: the failed scan's floor and the
// CapTrips it counted. Event sites call it (via dirtyBank) on anything that
// moves queues, streaks, timing floors, or the draining flag.
func (c *Controller) dirtySched() {
	c.ffGen++
	c.ffSchedValid = false
}

// dirtyBank records an event scoped to one bank: a command issued on it or a
// request enqueued for it. The schedule memo always drops (queue contents,
// hit streaks, and rank/bank-group floors are shared), but the per-bank
// timeout component drops only the touched bank's entry — this is what makes
// horizon maintenance O(1)-ish per event instead of O(banks × queue).
func (c *Controller) dirtyBank(b int) {
	c.dirtySched()
	c.ffTODirty |= 1 << uint(b)
	c.ffTOAggOK = false
}

// dirtyAllHorizon invalidates every component: rank-wide events (PREA, REF,
// refresh retiming, external reconfiguration) can move any bank's floors.
func (c *Controller) dirtyAllHorizon() {
	c.dirtySched()
	c.ffTODirty = c.ffTOAll
	c.ffTOAggOK = false
}

// refArmCycle returns the first cycle ≥ now at which tickRefresh would arm
// stream i: the first t at which refArmed holds. The closed-form guess is
// corrected against the predicate itself to absorb float rounding (the
// predicate is monotone in t).
func (c *Controller) refArmCycle(i int, now int64, pending bool) int64 {
	guess := c.refNext[i]
	if c.cfg.MaxPostponedRefresh > 0 && pending {
		guess += c.cfg.Refresh[i].Interval * float64(c.cfg.MaxPostponedRefresh)
	}
	t := int64(guess)
	if t < now {
		t = now
	}
	for t > now && c.refArmed(i, t-1, pending) {
		t--
	}
	for !c.refArmed(i, t, pending) {
		t++
	}
	return t
}

// schedComponent serves the schedule-horizon component as a pure memo read.
// The memo's only producer is the real scheduler: a tickSchedule scan that
// issues nothing publishes its candidate minimum (publishSched), and every
// event that could move a candidate dirties the memo. When the memo is
// invalid — an event just happened, or the drain regime oscillates — the
// component degrades to "an action may be imminent" (now), which costs the
// planner at most the real ticks until the next failed scan republishes.
// When it is valid but reached, the tick at the memoised cycle performs the
// action (or its failed scan republishes), so eager recomputation would buy
// nothing. Either way the planner never walks the request queues: on the
// high-MPKI profiles where a command issues every few device ticks, the old
// recompute-on-dirty scheme rebuilt an O(queue) scan per issue event, which
// made planning a net loss exactly where CLR-DRAM's evaluation lives.
func (c *Controller) schedComponent(now int64) int64 {
	if !c.ffSchedValid || c.ffSched <= now {
		return now
	}
	return c.ffSched
}

// rowCloseComponent serves the policy-initiated row-close component from
// the per-bank entry table: entry b memoises the cycle tickRowClose could
// close bank b's row (RowPolicy.BankCloseCycle — ffNever when the policy
// never would). Only dirtied entries are re-derived; entries at or below
// now are also re-derived, because a memoised entry can be a tRFC-era
// underestimate (see the file comment). The common case — clean table,
// aggregate ahead of the clock — is two compares.
func (c *Controller) rowCloseComponent(now int64) int64 {
	if c.ffTOAggOK && c.ffTOAgg > now {
		return c.ffTOAgg
	}
	dirty := c.ffTODirty
	c.ffTODirty = 0
	h := ffNever
	for b, e := range c.ffBankTO {
		if dirty&(1<<uint(b)) != 0 || e <= now {
			e = c.policy.BankCloseCycle(c, b)
			c.ffBankTO[b] = e
		}
		h = min(h, e)
	}
	c.ffTOAgg = h
	c.ffTOAggOK = true
	return h
}

// SkipTicks advances the controller and device n cycles at once. The caller
// (the sim fast-forward path) guarantees the span starts from a settled
// horizon, ends at or before it, and receives no request, so no completion
// fires, no command issues and the draining flag holds (see the file
// comment); what remains is exactly what n calls to Tick would do: add the
// memoised failed scan's CapTrips once per cycle, record the per-cycle
// observability samples, and advance the clock. It panics if the horizon
// is not settled (HorizonSettled), the one precondition a bulk replay
// cannot reproduce.
func (c *Controller) SkipTicks(n int64) {
	if n <= 0 {
		return
	}
	if !c.HorizonSettled() {
		panic("mem: SkipTicks from an unsettled horizon")
	}
	if c.refPending == -1 {
		c.st.CapTrips += c.ffTrips * uint64(n)
	}
	if c.collect {
		c.observe(n, false)
	}
	c.dev.AdvanceClock(n)
}

// observe records the observability samples of n cycles starting at the
// current device cycle, on which the controller state holds: the queue
// occupancies and, on cycles that issued nothing, why — idle, refresh, the
// DRAM constraint binding the oldest request of the queue the scheduler
// considered, or the row-hit cap withholding a serviceable one. Tick
// records one cycle; SkipTicks a whole span. Only called when
// Config.Metrics is set, so the disabled path pays one branch.
func (c *Controller) observe(n int64, issued bool) {
	c.obsReadQ.ObserveN(float64(c.read.n), uint64(n))
	c.obsWriteQ.ObserveN(float64(c.write.n), uint64(n))
	if c.draining {
		c.obsDrain.Add(uint64(n))
	}
	if issued {
		return
	}
	if c.Pending() == 0 {
		c.obsIdle.Add(uint64(n))
		return
	}
	if c.refPending != -1 {
		// An armed refresh suppresses request scheduling until it drains
		// (PREA + REF); attribute the whole wait to the refresh path.
		c.obsStalls[dram.ConstraintRefresh].Add(uint64(n))
		return
	}
	// Classify by the oldest request of the queue the scheduler considered
	// (c.draining was settled by tickSchedule and holds over a span),
	// falling back to the other queue if that one is empty.
	q := &c.read
	if (c.draining || q.n == 0) && c.write.n > 0 {
		q = &c.write
	}
	req := q.banks[q.oldest()].reqs[0]
	open, row := c.dev.BankState(req.decoded.Bank)
	var cmd dram.Command
	switch {
	case open && row == req.decoded.Row:
		kind := dram.KindRD
		if req.Write {
			kind = dram.KindWR
		}
		cmd = dram.Command{Kind: kind, Bank: req.decoded.Bank, Row: req.decoded.Row, Column: req.decoded.Column}
	case open:
		cmd = dram.Command{Kind: dram.KindPRE, Bank: req.decoded.Bank}
	default:
		cmd = dram.Command{Kind: dram.KindACT, Bank: req.decoded.Bank, Row: req.decoded.Row}
	}
	// With frozen state the per-cycle classification is at most three
	// segments: tRFC prefix, binding-floor wait, then "serviceable but
	// withheld" (the cap). ConstraintNone never reaches obsStalls: a floor
	// past the clock always has a binding constraint.
	now := c.dev.Clock()
	refU, floor, why := c.dev.ConstraintSpan(cmd)
	nRef := clamp64(refU-now, 0, n)
	nWhy := clamp64(floor-now-nRef, 0, n-nRef)
	nCap := n - nRef - nWhy
	if nRef > 0 {
		c.obsStalls[dram.ConstraintRefresh].Add(uint64(nRef))
	}
	if nWhy > 0 {
		c.obsStalls[why].Add(uint64(nWhy))
	}
	if nCap > 0 {
		c.obsCap.Add(uint64(nCap))
	}
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
