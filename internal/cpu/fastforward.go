package cpu

// This file is the core's half of the system simulator's next-event
// fast-forward path (see internal/sim and DESIGN.md §9). The contract:
// the core classifies its own next-cycle behaviour (FFState), and the sim
// layer bulk-advances it with Skip. The bulk advance is bit-identical to
// calling Tick the same number of times under the declared preconditions;
// any divergence is a bug the differential tests catch.
//
// The sim layer consumes a classification one way: a skippable core lags.
// It accumulates a lag counter in place of its Ticks, while other cores
// tick or the whole system jumps, and the accumulated cycles are flushed
// through Skip at the first event that could end the classification's
// validity window.
//
// Validity windows, per class: Burst and Fill hold for at most CapCycles
// further ticks (the classification itself excludes the boundary tick) and
// are additionally cut short by any load completion delivered to the core —
// not because the bulk advance becomes wrong (any k ≤ cap is exact), but
// because the completion changes loadsInFlight, which Skip folds in as a
// constant over the span. The stall classes (window-full, MSHR, EOF retire
// stall) are event-bounded only: they hold until a completion and CapCycles
// is unbounded. The drained-EOF no-op holds forever. The sim layer must
// therefore flush a lagged core BEFORE delivering any completion to it, and
// a lag may never span a completion.
//
// No class touches the memory system: a tick that would re-attempt the
// memory port (a pending load under the MSHR limit, or a pending store)
// always classifies unskippable and runs for real. The port rejects only
// when the memory system is saturated, and a stall there ticks through
// exactly.

// FFState describes whether, and how, the core can be advanced several
// cycles at once without running Tick.
type FFState struct {
	// Skippable reports that every one of the next cycles repeats the same
	// state transition until an external event (load completion, span cap)
	// intervenes.
	Skippable bool

	// Burst: the core retires RetireWidth and issues RetireWidth non-memory
	// (bubble) instructions every cycle; MaxCycles bounds how many cycles
	// that holds (limited by the bubble run, the ready run ahead of the
	// oldest in-flight load, and the instruction target).
	Burst     bool
	MaxCycles int64

	// Fill: retirement is stalled on an in-flight load at the window head
	// while issue inserts a full IssueWidth of bubbles every cycle; MaxCycles
	// bounds how long both hold (bubble run, window space).
	Fill bool

	// Per-skipped-cycle stall counters to bulk-apply (mirrors the n==0
	// increments in retire/issue).
	RetireStall bool
	WindowFull  bool
	MSHRStall   bool
}

// FFState classifies the core's next cycle for the fast-forward path. It is
// pure: no core state changes.
func (c *Core) FFState() FFState {
	var st FFState
	// Drained EOF core: once finished, every tick is a pure no-op.
	if c.eof && c.count == 0 && !c.memPending {
		if !c.finished {
			return st // the finishing tick must run for real
		}
		st.Skippable = true
		return st
	}
	// All window values written by insert/loadDone are ≤ the cycle they
	// were written at, so a head entry greater than the current cycle is
	// exactly an in-flight load (notReady).
	headBlocked := c.count > 0 && c.window[c.head] > c.cycle
	if c.count >= len(c.window) && headBlocked {
		st.Skippable = true
		st.RetireStall = true
		st.WindowFull = true
		return st
	}
	// A full window with a ready head is NOT terminal: retire frees
	// RetireWidth slots before issue runs, so a bubble run keeps streaming
	// at full width — the burst classification below covers it (the fill
	// path self-excludes on zero free space).
	if c.bubblesLeft > 0 {
		if headBlocked {
			// Blocked-head fill: retirement stalls on an in-flight load while
			// issue streams bubbles into the window at full width. Each of
			// the k cycles must insert exactly IssueWidth bubbles, so the
			// span ends before either the bubble run or the free space drops
			// below one issue group (the boundary cycle runs for real).
			i := c.cfg.IssueWidth
			k := int64(c.bubblesLeft / i)
			if ks := int64((len(c.window) - c.count) / i); ks < k {
				k = ks
			}
			if k < 1 {
				return st
			}
			st.Skippable = true
			st.Fill = true
			st.RetireStall = true
			st.MaxCycles = k
			return st
		}
		r := c.cfg.RetireWidth
		if c.cfg.IssueWidth != r || c.count < r {
			return st
		}
		// Pure-bubble burst: count stays constant (retire R, insert R), and
		// every inserted bubble is immediately ready.
		k := int64(1) << 62
		if len(c.loadSeqs) > 0 {
			minSeq := c.loadSeqs[0]
			for _, s := range c.loadSeqs[1:] {
				if s < minSeq {
					minSeq = s
				}
			}
			k = int64((minSeq - c.retired) / uint64(r))
		}
		if kb := int64(c.bubblesLeft / r); kb < k {
			k = kb
		}
		if !c.finished && c.target > 0 {
			// Never let a bulk step reach the instruction target: the
			// crossing tick freezes finishedStats and must run for real.
			kt := int64((c.target - 1 - c.retired) / uint64(r))
			if kt < k {
				k = kt
			}
		}
		if k < 1 {
			return st
		}
		st.Skippable = true
		st.Burst = true
		st.MaxCycles = k
		return st
	}
	// bubblesLeft == 0.
	if c.count >= len(c.window) {
		return st // full window with a ready head drains into a record read
	}
	if !c.memPending {
		if c.eof && headBlocked {
			// Issue returns silently at EOF; only retirement stalls.
			st.Skippable = true
			st.RetireStall = true
			return st
		}
		return st // next tick reads a trace record or drains retirement
	}
	// A memory record is pending. Only the MSHR stall repeats without
	// touching the memory port; any other tick re-attempts the port and
	// runs for real.
	if (!headBlocked && c.count > 0) || c.memRec.Write || c.loadsInFlight < c.cfg.MSHRs {
		return st
	}
	st.Skippable = true
	st.RetireStall = headBlocked
	st.MSHRStall = true
	return st
}

// RetireWidth returns the configured retire width (the sim layer needs it to
// cap bursts against external retirement ceilings, e.g. RunFor thresholds).
func (c *Core) RetireWidth() int { return c.cfg.RetireWidth }

// ffUnbounded is CapCycles' answer for event-bounded classifications: the
// stall classes stay valid until an external event, not a cycle count.
const ffUnbounded = int64(1) << 62

// CapCycles returns the classification's self-imposed validity bound: how
// many further ticks the declared transition repeats before the boundary
// tick must run for real. Burst and Fill report their MaxCycles; the stall
// and drained-EOF classes are event-bounded and report ffUnbounded (their
// windows end only at a completion — see the file comment).
// Only meaningful when Skippable.
func (st FFState) CapCycles() int64 {
	if st.Burst || st.Fill {
		return st.MaxCycles
	}
	return ffUnbounded
}

// Skip advances the core k cycles at once under the classification st that
// FFState returned, exactly as if Tick had run k times: the MLP fold, the
// classification's own progress, the per-cycle stall counters st declares,
// and the clock.
//
//   - Burst: k·RetireWidth bubbles retire and as many issue, in O(1). The
//     freed window slots keep their stale ready-at values; that is
//     behaviourally identical because every value ever written to a slot
//     is ≤ the cycle it was written at, hence already retirable.
//   - Fill: k·IssueWidth bubbles enter the window behind the blocked head,
//     in O(k·IssueWidth) window writes. Inserted slots get the span's start
//     cycle rather than their true insert cycle; that is behaviourally
//     identical because both are ≤ every cycle at which the slot can be
//     compared at the window head.
//   - The stall classes and the drained-EOF no-op make no progress.
func (c *Core) Skip(k int64, st FFState) {
	if c.loadsInFlight > 0 {
		c.mlpSum += uint64(c.loadsInFlight) * uint64(k)
		c.mlpCycles += uint64(k)
	}
	switch {
	case st.Burst:
		n := k * int64(c.cfg.RetireWidth)
		c.retired += uint64(n)
		c.head = int((int64(c.head) + n) % int64(len(c.window)))
		c.tail = int((int64(c.tail) + n) % int64(len(c.window)))
		c.bubblesLeft -= int(n)
	case st.Fill:
		n := k * int64(c.cfg.IssueWidth)
		for j := int64(0); j < n; j++ {
			c.insert(c.cycle)
		}
		c.bubblesLeft -= int(n)
	}
	ku := uint64(k)
	if st.RetireStall {
		c.retireStalls += ku
	}
	if st.WindowFull {
		c.windowFulls += ku
	}
	if st.MSHRStall {
		c.mshrStalls += ku
	}
	c.cycle += k
}
