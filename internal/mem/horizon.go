package mem

import (
	"clrdram/internal/dram"
)

// This file is the controller's half of the system simulator's next-event
// fast-forward path (DESIGN.md §9, §13). NextEventCycle returns a safe lower
// bound on the first future device cycle at which Tick would do anything
// other than advance the clock; SkipTicks then replays a span of such dead
// cycles in bulk, bit-identically to ticking through them — including the
// write-drain hysteresis settling, FR-FCFS-Cap trip counting, and the
// per-cycle observability samples.
//
// The horizon contract: during a span in which no request arrives and the
// horizon has not been reached, every piece of state the per-cycle Tick
// reads is frozen (queues, bank states, timing floors, refresh schedule,
// hit streaks) except the clock and the draining flag — and the draining
// flag's trajectory under frozen queue lengths is fully determined (it
// settles to a fixpoint in one step, or oscillates with period 2 when the
// read queue is empty and the write queue sits in (0, WriteLow]). Horizons
// may only ever be UNDERESTIMATES: a too-small horizon costs real ticks, a
// too-large one would skip an action and diverge.
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
// cycle may be at or before the device clock only when an event is due
// immediately (the caller then takes a real tick).
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
		anyOpen := false
		if m, ok := c.dev.OpenBankMask(); ok {
			anyOpen = m != 0
		} else {
			banks := c.dev.NumBanks()
			for b := 0; b < banks; b++ {
				if open, _ := c.dev.BankState(b); open {
					anyOpen = true
					break
				}
			}
		}
		if anyOpen {
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

// dirtySched invalidates the schedule-dependent memos: the scheduleHorizon
// component and the capped-hit counts SkipTicks replays. Event sites call it
// (via dirtyBank) on anything that moves queues, streaks, timing floors, or
// the draining flag.
func (c *Controller) dirtySched() {
	c.ffGen++
	c.ffSchedValid = false
	c.ffCapValid[0], c.ffCapValid[1] = false, false
}

// dirtyBank records an event scoped to one bank: a command issued on it or a
// request enqueued for it. The schedule memo always drops (queue contents,
// hit streaks, and rank/bank-group floors are shared), but the per-bank
// timeout component drops only the touched bank's entry — this is what makes
// horizon maintenance O(1)-ish per event instead of O(banks × queue).
func (c *Controller) dirtyBank(b int) {
	c.dirtySched()
	if c.ffBankTO != nil {
		c.ffTODirty |= 1 << uint(b)
		c.ffTOAggOK = false
	} else {
		c.ffTimeoutValid = false
	}
}

// dirtyAllHorizon invalidates every component: rank-wide events (PREA, REF,
// refresh retiming, external reconfiguration) can move any bank's floors.
func (c *Controller) dirtyAllHorizon() {
	c.dirtySched()
	if c.ffBankTO != nil {
		c.ffTODirty = c.ffTOAll
		c.ffTOAggOK = false
	}
	c.ffTimeoutValid = false
}

// refArmCycle returns the first cycle ≥ now at which tickRefresh would arm
// stream i, reproducing its float64 predicates exactly: due means
// float64(t) ≥ refNext[i], and with postponement enabled and work pending
// the stream additionally waits until it is MaxPostponedRefresh intervals
// behind. The closed-form guess is corrected against the actual predicate
// to absorb float rounding (the predicate is monotone in t).
func (c *Controller) refArmCycle(i int, now int64, pending bool) int64 {
	postpone := c.cfg.MaxPostponedRefresh > 0 && pending
	armed := func(t int64) bool {
		ft := float64(t)
		if ft < c.refNext[i] {
			return false
		}
		if postpone {
			behind := (ft - c.refNext[i]) / c.cfg.Refresh[i].Interval
			if behind < float64(c.cfg.MaxPostponedRefresh) {
				return false
			}
		}
		return true
	}
	guess := c.refNext[i]
	if postpone {
		guess += c.cfg.Refresh[i].Interval * float64(c.cfg.MaxPostponedRefresh)
	}
	t := int64(guess)
	if t < now {
		t = now
	}
	for t > now && armed(t-1) {
		t--
	}
	for !armed(t) {
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

// scheduleHorizon returns the first cycle at which tickSchedule could issue
// a command, accounting for which queue the write-drain hysteresis lets it
// scan on each cycle of the frozen span.
func (c *Controller) scheduleHorizon(now int64) int64 {
	t1 := c.nextDraining(c.draining)
	t2 := c.nextDraining(t1)
	h := ffNever
	if t1 == t2 {
		// Fixpoint: the same queue is scanned every cycle.
		q := c.readQ
		if t1 {
			q = c.writeQ
		}
		for i, req := range q {
			h = min(h, c.sched.CandidateIssue(c, q, i, req))
			if h <= now {
				return h // the caller clamps to now; no later candidate matters
			}
		}
		return h
	}
	// Oscillation (read queue empty, write queue in (0, WriteLow]): the
	// write queue is scanned only on cycles whose settled draining value is
	// true — t1 at even offsets from now, t2 at odd — so a candidate whose
	// floor expires on a read-scan cycle issues one cycle later.
	for i, req := range c.writeQ {
		e := max(c.sched.CandidateIssue(c, c.writeQ, i, req), now)
		if e >= ffNever {
			continue
		}
		scanned := t1
		if (e-now)%2 == 1 {
			scanned = t2
		}
		if !scanned {
			e++
		}
		h = min(h, e)
	}
	return h
}

// rowCloseComponent serves the policy-initiated row-close component from
// the per-bank entry table: entry b memoises the cycle tickRowClose could
// close bank b's row (RowPolicy.BankCloseCycle — ffNever when the policy
// never would). Only dirtied entries are re-derived; entries at or below
// now are also re-derived, because a memoised entry can be a tRFC-era
// underestimate (see the file comment). The common case — clean table,
// aggregate ahead of the clock — is two compares.
func (c *Controller) rowCloseComponent(now int64) int64 {
	if c.ffBankTO == nil {
		// Geometries beyond 64 banks: whole-scan memo, dropped on any
		// bank event.
		if !c.ffTimeoutValid {
			c.ffTimeout = c.rowCloseHorizonSlow()
			c.ffTimeoutValid = true
		}
		return c.ffTimeout
	}
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

// rowCloseHorizonSlow is the table-free whole scan for geometries beyond 64
// banks.
func (c *Controller) rowCloseHorizonSlow() int64 {
	h := ffNever
	banks := c.dev.NumBanks()
	for b := 0; b < banks; b++ {
		h = min(h, c.policy.BankCloseCycle(c, b))
	}
	return h
}

// fullRescanHorizon recomputes the horizon from scratch, bypassing every
// memo, and mutates nothing. It is the test oracle for the incremental path:
// NextEventCycle must never exceed it, and must equal it whenever the
// incremental answer is strictly ahead of the clock (see horizon tests).
func (c *Controller) fullRescanHorizon(now int64) int64 {
	h := ffNever
	if c.completions.Len() > 0 {
		h = c.completions.Peek().cycle
		if h <= now {
			return now
		}
	}
	if c.refPending != -1 {
		anyOpen := false
		banks := c.dev.NumBanks()
		for b := 0; b < banks; b++ {
			if open, _ := c.dev.BankState(b); open {
				anyOpen = true
				break
			}
		}
		if anyOpen {
			h = min(h, c.dev.EarliestIssue(dram.Command{Kind: dram.KindPREA}))
		} else {
			ref := dram.Command{Kind: dram.KindREF, Mode: c.cfg.Refresh[c.refPending].Mode}
			h = min(h, c.dev.EarliestIssue(ref))
		}
		h = min(h, c.rowCloseHorizonSlow())
		return max(h, now)
	}
	pending := c.Pending() > 0
	for i := range c.refNext {
		h = min(h, c.refArmCycle(i, now, pending))
	}
	if h <= now {
		return now
	}
	h = min(h, c.rowCloseHorizonSlow())
	if h <= now {
		return now
	}
	h = min(h, c.scheduleHorizon(now))
	return max(h, now)
}

// nextDraining applies one step of activeQueue's hysteresis under the
// current (frozen) queue lengths.
func (c *Controller) nextDraining(d bool) bool {
	if d {
		return len(c.writeQ) > c.cfg.WriteLow
	}
	return len(c.writeQ) >= c.cfg.WriteHigh || (len(c.readQ) == 0 && len(c.writeQ) > 0)
}

// deadTripsMemo serves the scheduler's DeadCycleTrips through its per-queue
// memo, dirtied with the schedule component (any queue, streak, or
// bank-state change). SkipTicks replays spans back-to-back with unchanged
// queues on memory-intensive profiles; memoising removes its per-skip
// O(queue × conflict) scan.
func (c *Controller) deadTripsMemo(write bool) int64 {
	i, q := 0, c.readQ
	if write {
		i, q = 1, c.writeQ
	}
	if !c.ffCapValid[i] {
		c.ffCap[i] = c.sched.DeadCycleTrips(c, q)
		c.ffCapValid[i] = true
	}
	return c.ffCap[i]
}

// SkipTicks advances the controller and device n cycles at once. The caller
// (the sim fast-forward path) guarantees the span ends at or before the
// horizon and that no request arrives within it, so no completion fires and
// no command issues; what remains is exactly what n calls to Tick would do:
// settle the draining flag, accumulate the walk's CapTrips for scanned capped
// hits, record the per-cycle observability samples, and advance the clock.
func (c *Controller) SkipTicks(n int64) {
	if n <= 0 {
		return
	}
	now := c.dev.Clock()
	schedRuns := c.refPending == -1
	var trueCount int64 // cycles whose post-settle draining is true
	if schedRuns {
		t1 := c.nextDraining(c.draining)
		t2 := c.nextDraining(t1)
		if t1 == t2 {
			// Fixpoint: settle the flag first so the capped-hit memo
			// computed below survives the dirtySched of the flip.
			if c.draining != t1 {
				c.draining = t1
				c.dirtySched()
			}
			if t1 {
				trueCount = n
			}
			if trips := c.deadTripsMemo(t1); trips > 0 {
				c.st.CapTrips += uint64(trips) * uint64(n)
			}
		} else {
			// Oscillation: t1 on the 1st, 3rd, ... skipped cycle.
			d := t2
			if n%2 == 1 {
				d = t1
			}
			if c.draining != d {
				c.draining = d
				c.dirtySched()
			}
			if t1 {
				trueCount = (n + 1) / 2
			} else {
				trueCount = n / 2
			}
			// The read queue is empty here; the write queue is scanned only
			// on draining cycles.
			if trueCount > 0 {
				if trips := c.deadTripsMemo(true); trips > 0 {
					c.st.CapTrips += uint64(trips) * uint64(trueCount)
				}
			}
		}
	}
	if c.collect {
		c.skipObs(n, now, trueCount, schedRuns)
	}
	c.dev.AdvanceClock(n)
}

// skipObs bulk-records what obsTick would have recorded over n skipped
// cycles starting at device cycle now (issued == false on all of them).
func (c *Controller) skipObs(n, now, trueCount int64, schedRuns bool) {
	c.obsReadQ.ObserveN(float64(len(c.readQ)), uint64(n))
	c.obsWriteQ.ObserveN(float64(len(c.writeQ)), uint64(n))
	if schedRuns {
		c.obsDrain.Add(uint64(trueCount))
	} else if c.draining {
		// A pending refresh skips tickSchedule, so draining stays frozen at
		// its pre-span value on every cycle.
		c.obsDrain.Add(uint64(n))
	}
	if c.Pending() == 0 {
		c.obsIdle.Add(uint64(n))
		return
	}
	if c.refPending != -1 {
		c.obsStalls[dram.ConstraintRefresh].Add(uint64(n))
		return
	}
	// Classification queue per obsTick's fallback. In the oscillating
	// draining regime the read queue is empty, so the fallback lands on the
	// write queue at both parities and the choice is span-constant; in the
	// settled regimes c.draining already holds the per-cycle value.
	q := c.readQ
	if c.draining || len(q) == 0 {
		if len(c.writeQ) > 0 {
			q = c.writeQ
		}
	}
	req := q[0]
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
	// With frozen state the per-cycle BlockingConstraint sequence is at most
	// three segments: tRFC prefix, binding-floor wait, then "serviceable but
	// withheld" (the cap).
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
