package sim

import (
	"context"
)

// Next-event fast-forward (DESIGN.md §9). The per-cycle loop spends most of
// its time in stretches where a core is stalled on a known-latency event (or
// burning through a pure-bubble instruction run) and the controllers are
// waiting out timing floors. The fast-forward loop is one mechanism for both
// halves, bit-identical to having ticked through every cycle:
//
//   - Lag. Every core that cpu.FFState finds skippable carries a lag counter
//     in place of its Ticks. The counter is flushed through the core's bulk
//     advance (advanceCore) at the first event that could end the
//     classification's validity window: its own cap (Burst/Fill MaxCycles
//     or a RunFor retirement ceiling), an LLC-hit or memory completion
//     addressed to it, and the end of the loop.
//   - Jump. Whenever every core is lagged and no writeback waits, nothing
//     outside the controllers can change, so the system jumps: over the CPU
//     cycles before the next device tick, and, when every controller
//     horizon is settled, over the device ticks before the joint controller
//     horizon too (mem.Controller.SkipTicks replays them).
//
// Lagged cores execute nothing, and no lag class touches the memory system
// (a core whose next tick would re-attempt the memory port is unskippable),
// so the LLC, queues, horizons and device clock evolve exactly as in the
// ticked twin. A jump is bounded by the next due LLC hit, every lag cap and
// the controller horizon, whose device ticks come from the integer clock's
// closed form (clock.go): the same count step() would have ticked through
// cycle by cycle. Horizons are lower bounds, so an underestimate costs real
// cycles, never correctness.

const (
	// ffMaxSpan bounds one jump so the bulk updates stay cheap relative to
	// the span they replace, and keeps the clock's num·k far from overflow.
	ffMaxSpan = int64(1) << 20
	// ffMinSpan is the shortest jump worth carrying device ticks: below it
	// the horizon lookup and SkipTicks' bulk updates cost about as much as
	// ticking the controllers.
	ffMinSpan = 4
	// ffCtxStride is how many loop iterations pass between ctx.Err checks.
	ffCtxStride = 4096
)

// runLoop drives the system until done() (or the cycle safety bound, or ctx
// cancellation): through step() when fast-forward is off, else through
// ffStep. ceilings, when non-nil, are per-core retired-instruction bounds
// that no lag may cross (RunFor's stop condition is evaluated every
// iteration). Every lag is flushed before it returns.
func (s *System) runLoop(ctx context.Context, done func() bool, ceilings []uint64) (timedOut bool, err error) {
	ff := s.opts.FastForward != FFOff
	ctxCheck := 0
	for !done() {
		if s.cpuCycle >= s.opts.MaxCPUCycles {
			timedOut = true
			break
		}
		if ctxCheck == 0 {
			ctxCheck = ffCtxStride
			if err = ctx.Err(); err != nil {
				break
			}
		}
		ctxCheck--
		if ff {
			s.ffStep(ceilings)
		} else {
			s.step()
		}
	}
	for i := range s.cores {
		s.flushLag(i)
	}
	return timedOut, err
}

// ffStep advances the system from the top of CPU cycle cpuCycle: it fires
// the due LLC hits (flushing a lagged addressee first, so the callback
// stamps its true local clock), retries buffered writebacks, flushes lags at
// their cap and lags every skippable core, then either jumps (every core
// lagged) or runs one real cycle in which lagged cores count instead of
// ticking. A lagged core never decides done(): a lag cap keeps the core
// below its RunFor ceiling, and no lag class crosses the instruction
// target, so its stale Retired and Finished answer as the ticked twin's
// would.
func (s *System) ffStep(ceilings []uint64) {
	for s.hits.Len() > 0 && s.hits.peek().due <= s.cpuCycle {
		ev := s.hits.pop()
		s.flushLag(ev.core)
		ev.fn()
	}
	s.retryWritebacks()
	bound := min(s.opts.MaxCPUCycles-s.cpuCycle, ffMaxSpan)
	lagged := 0
	for i := range s.cores {
		if s.ffLagged[i] && s.ffLag[i] >= s.ffLagCap[i] {
			s.flushLag(i) // the boundary tick must be classified afresh
		}
		if !s.ffLagged[i] {
			s.lag(i, ceilings)
		}
		if s.ffLagged[i] {
			lagged++
			bound = min(bound, s.ffLagCap[i]-s.ffLag[i])
		}
	}
	if lagged == len(s.cores) && len(s.pendingWB) == 0 {
		if s.hits.Len() > 0 {
			bound = min(bound, s.hits.peek().due-s.cpuCycle)
		}
		k, ticks := s.jumpSpan(bound)
		if k > 0 {
			s.jump(k, ticks)
		}
		if k == bound {
			return
		}
		// The jump stopped short of its bound, at a device tick it may not
		// carry. Nothing can change before that tick, so its cycle runs
		// for real at once, with every core still lagged.
	}
	for i, c := range s.cores {
		if s.ffLagged[i] {
			s.ffLag[i]++
		} else {
			c.Tick()
		}
	}
	s.ffLaggedCycles += int64(lagged)
	s.clockCycle() // a memory completion flushes its lagged requester (pooledRequest.complete)
	s.cpuCycle++
	if s.ipcSeries != nil {
		// Lagged cores' epoch boundaries are replayed at flush time;
		// observing them here with stale counts would corrupt the series.
		for i, c := range s.cores {
			if !s.ffLagged[i] {
				s.ipcSeries[i].Observe(s.cpuCycle, float64(c.Retired()))
			}
		}
	}
}

// lag classifies core i's next cycle and, if it is skippable, opens a lag
// interval at the current cycle. The classification is kept in s.ffStates[i]
// for the whole interval; its cap is the classification's own validity
// bound (cpu.FFState.CapCycles) tightened by any RunFor ceiling, and a core
// whose very next retire group would cross its ceiling does not lag.
func (s *System) lag(i int, ceilings []uint64) {
	c := s.cores[i]
	st := c.FFState()
	if !st.Skippable {
		return
	}
	bound := st.CapCycles()
	if st.Burst && ceilings != nil && c.Retired() < ceilings[i] {
		bound = min(bound, int64((ceilings[i]-1-c.Retired())/uint64(c.RetireWidth())))
		if bound < 1 {
			return
		}
	}
	s.ffStates[i] = st
	s.ffLagged[i] = true
	s.ffLag[i] = 0
	s.ffLagCap[i] = bound
}

// jumpSpan returns how many cycles, of at most bound, the all-lagged system
// can jump from here, and the device ticks they carry. The cycles before the
// next device tick are always free. Device ticks are carried only when one
// falls inside the bound, every controller horizon is settled (an unsettled
// one answers "imminent", mem.Controller.HorizonSettled) and the span up to
// the joint horizon is at least ffMinSpan cycles.
func (s *System) jumpSpan(bound int64) (k, ticks int64) {
	idle := s.clk.idle()
	if bound <= idle {
		return bound, 0
	}
	if bound >= ffMinSpan && s.horizonsSettled() {
		if dead := s.jointHorizon() - s.ctrls[0].Clock(); dead > 0 {
			if k, ticks = s.clk.span(bound, dead); k >= ffMinSpan {
				return k, ticks
			}
		}
	}
	return idle, 0
}

// jump advances the all-lagged system k CPU cycles carrying ticks device
// ticks: the lag counters absorb the cycles, the controllers replay their
// dead ticks in bulk, and the clocks move.
func (s *System) jump(k, ticks int64) {
	for i := range s.ffLag {
		s.ffLag[i] += k
	}
	if ticks > 0 {
		for _, ctrl := range s.ctrls {
			ctrl.SkipTicks(ticks)
		}
	}
	s.clk.skip(k, ticks)
	s.cpuCycle += k
	s.ffSkips++
	s.ffSkipped += k
}

// horizonsSettled reports whether every controller's schedule-horizon memo
// is settled (mem.Controller.HorizonSettled): SkipTicks' precondition, and
// the gate that keeps jumps from asking for a horizon in the few-cycle
// windows between an issue or enqueue event and the failed scheduler scan
// that republishes the memo.
func (s *System) horizonsSettled() bool {
	for _, ctrl := range s.ctrls {
		if !ctrl.HorizonSettled() {
			return false
		}
	}
	return true
}

// jointHorizon returns the minimum NextEventCycle over all channels, cached
// across jumps: the cached joint horizon stays valid while every
// controller's HorizonGen is unchanged and the shared device clock sits
// strictly below it (each controller's horizon is then ≥ the joint minimum,
// so no memoised component has been reached). One generation check per
// channel replaces the per-channel horizon assembly on the common
// consecutive-jump path.
func (s *System) jointHorizon() int64 {
	now := s.ctrls[0].Clock() // all channels share one device clock
	if s.ffJointOK && s.ffJointH > now {
		ok := true
		for i, ctrl := range s.ctrls {
			if ctrl.HorizonGen() != s.ffGens[i] {
				ok = false
				break
			}
		}
		if ok {
			return s.ffJointH
		}
	}
	h := int64(1) << 62
	for i, ctrl := range s.ctrls {
		if hh := ctrl.NextEventCycle(); hh < h {
			h = hh
		}
		s.ffGens[i] = ctrl.HorizonGen()
	}
	s.ffJointH, s.ffJointOK = h, true
	return h
}

// flushLag applies core i's accumulated lag, if it is lagged, through
// advanceCore and closes the lag interval. The core's local clock lands
// where the ticked twin's is at the interception point: before a hit
// completion fires, one past the core phase for a memory completion, and on
// the current cycle at a cap or at loop exit.
func (s *System) flushLag(i int) {
	if !s.ffLagged[i] {
		return
	}
	k := s.ffLag[i]
	s.ffLagged[i] = false
	s.ffLag[i] = 0
	if k == 0 {
		return
	}
	s.advanceCore(i, k)
	s.ffLagFlushes++
	if s.ffOnFlush != nil {
		s.ffOnFlush(i, k)
	}
}

// advanceCore bulk-advances core i by k cycles under its classification in
// s.ffStates[i]. Epoch-series boundaries inside the span are observed
// exactly where the per-cycle loop would have observed them, with the
// cumulative retired count that held there; then the core's bulk advance
// (cpu.Core.Skip) runs. The span starts at the core's own clock on the
// system clock's scale (c.Cycle() + paused), which is where the per-cycle
// loop observes the series.
//
// After a Reconfigure migration the series' next boundary can lie at or
// before that start: the cores sat paused while the system clock crossed
// it, unobserved. The per-cycle loop observes those boundaries, and any
// boundary at start+1, at the first cycle after the pause, start+1, in one
// Observe call; so does the replay, clamping them to start+1.
func (s *System) advanceCore(i int, k int64) {
	c := s.cores[i]
	st := s.ffStates[i]
	if s.ipcSeries != nil {
		series := s.ipcSeries[i]
		start := c.Cycle() + s.paused
		r0 := c.Retired()
		for nb := series.NextBoundary(); nb <= start+k; nb = series.NextBoundary() {
			nb = max(nb, start+1)
			r := r0
			if st.Burst {
				// The per-cycle loop observes after the step: at clock nb
				// the core has retired (nb − start) further cycles' worth
				// of instructions.
				r += uint64(nb-start) * uint64(c.RetireWidth())
			}
			series.Observe(nb, float64(r))
		}
	}
	c.Skip(k, st)
}
