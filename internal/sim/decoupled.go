package sim

import "context"

const (
	// ffJointProbeStride is how many all-lagged stretch cycles pass between
	// jointViable probes: the probe touches every controller's horizon memo,
	// which is pure overhead while memory stays busy, and re-entering the
	// joint planner a few cycles late costs almost nothing.
	ffJointProbeStride = 16
	// ffRetryStride is the re-probe backoff for a core whose tryLag failed:
	// an unskippable core is doing real per-cycle work, and paying an
	// FFState classification on top of every Tick erases the stretch's
	// savings. Lagging a few cycles late is always allowed.
	ffRetryStride = 4
)

// Decoupled per-core lag (DESIGN.md §15). The joint planner (planSkip) is
// all-or-nothing: one unskippable core used to force every core through the
// per-cycle loop, so multi-programmed mixes simulated at the speed of their
// least-skippable core. This file closes that gap without weakening the
// bit-identity contract: when the classification is mixed, the system enters
// a *decoupled stretch* in which the unskippable cores, the controllers and
// the device step for real every cycle while each skippable core carries a
// lag counter in place of its Ticks.
//
// The key invariant: a lagged core's pending cycles are flushed through the
// same bulk advance the joint path uses (cpu.Core.Skip) — exactly
// equivalent to having ticked it — and the flush happens at the
// FIRST event that could end its classification's validity window
// (cpu.FFState's CapCycles contract):
//
//   - its own cap: Burst/Fill MaxCycles, or a RunFor retirement ceiling
//     (checked before each cycle is added to the lag);
//   - an LLC-hit completion addressed to it (fired at the top of the cycle,
//     before core ticks — the flush lands the core's local clock on the
//     firing cycle, so loadDone stamps the same ready-at value the ticked
//     twin would);
//   - a memory completion addressed to it (fired inside Controller.Tick,
//     after this cycle's core phase — the lag already includes this cycle's
//     tick, so the flush lands the local clock one past it, again exactly
//     the twin's value; the hook lives in sendFetch's OnComplete, before
//     the LLC fill runs the MSHR waiters);
//   - the end of the stretch (every exit path flushes all lags, so the
//     joint planner, RunFor's stop condition, Reconfigure and
//     snapshotResult never observe stale core state).
//
// Shared state needs no special handling: lagged cores execute nothing, and
// no lag class touches the memory system (a core whose next tick would
// re-attempt the memory port is unskippable, cpu.FFState), so the LLC,
// queues, controller horizons and the device clock evolve exactly as in the
// ticked twin. Stale Retired() values cannot flip done(): lag caps keep a
// lagged core strictly below any RunFor ceiling, and no lagged
// classification can cross the instruction target (FFState excludes the
// finishing tick), so a lagged core is never the reason done() would be true.

// runDecoupled runs a decoupled stretch. It must be entered immediately
// after a planSkip call that set ffMixed (same CPU cycle, no intervening
// mutation): the per-core classifications in s.ffStates / s.ffCanLag seed
// the lag set. It returns the timeout flag and context error, mirroring
// runLoop's own checks. All lags are flushed on every exit path.
func (s *System) runDecoupled(ctx context.Context, done func() bool, ceilings []uint64, ctxCheck *int) (timedOut bool, err error) {
	entry := s.cpuCycle
	probe := 0
	s.ffAnyLag = true
	for i := range s.cores {
		if s.ffCanLag[i] {
			s.beginLag(i, ceilings)
		}
	}
	for {
		if done() {
			break
		}
		if s.cpuCycle >= s.opts.MaxCPUCycles {
			timedOut = true
			break
		}
		if *ctxCheck == 0 {
			*ctxCheck = ffCtxStride
			if e := ctx.Err(); e != nil {
				err = e
				break
			}
		}
		*ctxCheck--

		// Due LLC-hit completions, waking lagged addressees first: the
		// flush lands the core's local clock on this cycle, the callback
		// then stamps it, and the core ticks for real below.
		for s.hits.Len() > 0 && s.hits.peek().due <= s.cpuCycle {
			ev := s.hits.pop()
			if s.ffLagged[ev.core] {
				s.flushLag(ev.core)
			}
			ev.fn()
		}
		// Retry buffered writebacks (exactly step()'s phase).
		s.retryWritebacks()
		// (Re)classify: expire caps (the boundary cycle must reclassify —
		// possibly into a different lag class, possibly into a real tick),
		// and retry every real core for lag eligibility.
		nLagged := 0
		for i := range s.cores {
			if s.ffLagged[i] {
				if s.ffLag[i] >= s.ffLagCap[i] {
					// Cap expiry: reclassify immediately (no backoff) — the
					// boundary cycle often opens a fresh lag class.
					s.flushLag(i)
					s.tryLag(i, ceilings)
				}
			} else if s.cpuCycle >= s.ffRetryAt[i] {
				s.tryLag(i, ceilings)
				if !s.ffLagged[i] {
					s.ffRetryAt[i] = s.cpuCycle + ffRetryStride
				}
			}
			if s.ffLagged[i] {
				nLagged++
			}
		}
		if nLagged == 0 {
			break // nothing left to decouple: plain stepping is cheaper
		}
		if nLagged == len(s.cores) && s.cpuCycle > entry {
			// Everything is skippable: probe (on a stride — the probe costs
			// horizon-memo reads) whether the joint planner has room for a
			// real span, and hand back so it can bulk-skip device ticks too.
			// While memory stays busy (horizon imminent, hits due) the
			// stretch keeps lagging instead: breaking early would thrash
			// between the two planners, flushing one-cycle lags. The
			// progress guard (at least one stretch cycle run) keeps a
			// planSkip↔stretch round from ever spinning without advancing
			// the clock.
			if probe == 0 {
				if s.jointViable() {
					break
				}
				probe = ffJointProbeStride
			}
			probe--
		}
		// All-lagged batch: with every core lagged and no writeback pending,
		// nothing observable can change before the next device tick (queues,
		// horizons and completions only move inside Controller.Tick), the
		// next due hit completion, or the earliest lag cap. Jump the CPU
		// clock over those dead cycles in one step — the device clock's
		// closed-form span bounds the jump to cycles carrying zero device
		// ticks, so the next loop iteration lands exactly where the
		// per-cycle walk would. (A zero-tick span is at most den cycles, so
		// the ffMaxSpan clamp never shortens it.)
		if nLagged == len(s.cores) && len(s.pendingWB) == 0 {
			bound := min(s.opts.MaxCPUCycles-s.cpuCycle, ffMaxSpan)
			for i := range s.cores {
				if left := s.ffLagCap[i] - s.ffLag[i]; left < bound {
					bound = left
				}
			}
			if s.hits.Len() > 0 {
				if left := s.hits.peek().due - s.cpuCycle; left < bound {
					bound = left
				}
			}
			stride, _ := s.clk.span(bound, 0)
			if stride > 0 {
				for i := range s.ffLag {
					s.ffLag[i] += stride
				}
				s.clk.skip(stride)
				s.cpuCycle += stride
				if int64(*ctxCheck) <= stride {
					*ctxCheck = 0
				} else {
					*ctxCheck -= int(stride)
				}
				continue
			}
		}
		// One real cycle, with lagged cores counting instead of ticking.
		for i, c := range s.cores {
			if s.ffLagged[i] {
				s.ffLag[i]++
			} else {
				c.Tick()
			}
		}
		s.clockCycle() // memory completions wake lagged cores via sendFetch's hook
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
	for i := range s.cores {
		if s.ffLagged[i] {
			s.flushLag(i)
		}
	}
	s.ffAnyLag = false
	return timedOut, err
}

// jointViable reports whether handing an all-lagged stretch back to the
// joint planner could plausibly yield a span ≥ ffMinSpan: writebacks
// drained, no hit completion due inside the span, horizons settled, and
// enough dead device ticks ahead of the joint horizon to clock an ffMinSpan
// span (the device clock's exact tick count for it, plus one). Each
// condition mirrors a bound planSkip applies; false keeps the stretch
// lagging through the busy phase instead of thrashing between planners.
func (s *System) jointViable() bool {
	if len(s.pendingWB) > 0 || !s.horizonsSettled() {
		return false
	}
	if s.hits.Len() > 0 && s.hits.peek().due-s.cpuCycle < ffMinSpan {
		return false
	}
	return s.jointHorizon()-s.ctrls[0].Clock() >= s.clk.ticks(ffMinSpan)+1
}

// tryLag classifies core i and, if the classification is skippable under the
// same checks planSkip applies (cap ≥ 1, RunFor ceiling), starts a lag
// interval at the current cycle. The captured FFState lives in s.ffStates[i]
// for the whole interval; flushLag consumes it.
func (s *System) tryLag(i int, ceilings []uint64) {
	st := s.cores[i].FFState()
	if !st.Skippable {
		return
	}
	s.ffStates[i] = st
	s.beginLag(i, ceilings)
	if s.ffLagCap[i] < 1 {
		s.ffLagged[i] = false // e.g. a RunFor ceiling right at the next retire group
	}
}

// beginLag opens a lag interval for core i from its current classification
// in s.ffStates[i]: the cap is the classification's own validity bound
// (cpu.FFState.CapCycles) tightened by any RunFor ceiling.
func (s *System) beginLag(i int, ceilings []uint64) {
	bound := s.ffStates[i].CapCycles()
	if kc, ok := s.ceilingHeadroom(i, ceilings); ok {
		bound = min(bound, kc)
	}
	s.ffLagged[i] = true
	s.ffLag[i] = 0
	s.ffLagCap[i] = bound
}

// flushLag applies core i's accumulated lag through advanceCore, the bulk
// advance a joint span uses (same per-boundary retired counts). The core's
// local clock lands where the ticked twin's would be at the interception
// point — before a hit completion fires, one past the core phase for a
// memory completion, and on the current cycle at a cap or stretch boundary.
func (s *System) flushLag(i int) {
	k := s.ffLag[i]
	s.ffLagged[i] = false
	s.ffLag[i] = 0
	if k == 0 {
		return
	}
	s.advanceCore(i, k)
	s.ffLagFlushes++
	s.ffLaggedCycles += k
	if s.ffOnFlush != nil {
		s.ffOnFlush(i, k)
	}
}
