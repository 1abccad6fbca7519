package sim

import (
	"context"
)

// Next-event fast-forward (DESIGN.md §9). The per-cycle loop spends most of
// its time in stretches where every core is stalled on a known-latency event
// (or burning through pure-bubble instruction runs) and every controller is
// waiting out a timing floor. In those stretches each component can name the
// earliest future cycle its state can change; the loop jumps straight to the
// minimum of those horizons, bulk-updating counters and epoch series so the
// result is bit-identical to having ticked through every cycle.
//
// A span of k CPU cycles is skippable only when, for its whole duration:
//   - no buffered writeback needs retrying (pendingWB empty),
//   - no LLC-hit completion falls due (k ≤ first due − now),
//   - every core repeats a classified transition (cpu.FFState): a pure
//     no-op, a counted stall, or a full-width pure-bubble burst — none of
//     which touches the memory system, so nothing enqueues, and
//   - no controller reaches its horizon: the device ticks accompanying the
//     k CPU cycles stay strictly inside every controller's dead span.
//
// Horizons are lower bounds — an underestimate costs real ticks, never
// correctness — and the span's device ticks come from the integer clock's
// closed form (clock.go), the same count step() would have ticked through
// cycle by cycle.

const (
	// ffMaxSpan bounds one skip so the bulk updates stay cheap relative to
	// the span they replace, and keeps the clock's num·k far from overflow.
	ffMaxSpan = int64(1) << 20
	// ffMinSpan is the smallest span worth applying: below it the bulk
	// updates (SkipTicks observability, epoch-series boundaries) cost about
	// as much as just stepping, and the tiny skips they'd buy mostly occur
	// in memory-bound stretches where planning is pure overhead.
	ffMinSpan = 4
	// ffCtxStride is how many loop iterations pass between ctx.Err checks.
	ffCtxStride = 4096
)

// runLoop drives the system until done() (or the cycle safety bound, or ctx
// cancellation), through the fast-forward path unless disabled. ceilings,
// when non-nil, are per-core retired-instruction bounds that bulk skips must
// not cross (RunFor's stop condition is evaluated between real steps only).
func (s *System) runLoop(ctx context.Context, done func() bool, ceilings []uint64) (timedOut bool, err error) {
	ff := s.opts.FastForward != FFOff
	ctxCheck := 0
	for !done() {
		if s.cpuCycle >= s.opts.MaxCPUCycles {
			return true, nil
		}
		if ctxCheck == 0 {
			ctxCheck = ffCtxStride
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		ctxCheck--
		if ff {
			if s.ffSleep > 0 {
				s.ffSleep--
			} else if !s.horizonsSettled() {
				// A controller is between a state change and the next
				// scheduler scan: its horizon degrades to "imminent", so an
				// attempt cannot find a span. Real-step until the scan
				// settles it (a few cycles at most) — these steps are free
				// of planning cost.
			} else {
				k, devTicks, costly, paced := s.planSkip(ceilings)
				if k >= ffMinSpan {
					s.applySkip(k, devTicks)
					if paced {
						// The span stopped because its next CPU cycle carries
						// the horizon device tick: the immediate re-attempt is
						// a guaranteed failure, so step through the boundary
						// planner-less instead of paying a no-op planning
						// attempt.
						s.ffSleep = 1
					}
					continue
				}
				if s.ffMixed {
					// Mixed classification: some cores are skippable, others
					// must tick. Run a decoupled stretch — unskippable cores,
					// controllers and the device step for real every cycle
					// while skippable cores accumulate lag counters that are
					// flushed at their first wake event (decoupled.go). The
					// stretch returns with all lags flushed.
					timedOut, err := s.runDecoupled(ctx, done, ceilings, &ctxCheck)
					if timedOut || err != nil {
						return timedOut, err
					}
					continue
				}
				if costly {
					// Event-paced retry: the attempt got as far as a real span
					// bound, so some constraint (horizon, due hit, burst cap)
					// bites within k+1 cycles — no span ≥ ffMinSpan can begin
					// before that boundary, and re-planning each intervening
					// cycle would recompute the same shrinking answer. Step
					// planner-less THROUGH the boundary cycle (k+1 steps): an
					// attempt at or just before it is a guaranteed re-failure,
					// so resume planning only once the bounding event has run.
					s.ffSleep = k + 1
				}
			}
		}
		s.step()
	}
	return false, nil
}

// horizonsSettled reports whether every controller's schedule-horizon memo
// is settled (mem.Controller.HorizonSettled): the gate that keeps the
// planner from burning attempts in the few-cycle windows between an issue
// or enqueue event and the failed scheduler scan that republishes the memo.
func (s *System) horizonsSettled() bool {
	for _, ctrl := range s.ctrls {
		if !ctrl.HorizonSettled() {
			return false
		}
	}
	return true
}

// planSkip determines the longest skippable span from the current state. It
// returns the CPU-cycle count k (0 if the next cycle must run for real), the
// number of device ticks the span carries, whether the plan got as far as
// the controller-horizon recomputation (the expensive stage — runLoop's
// backoff keys off it), and whether the span was bounded by the controller
// horizon (paced — the cycle after the span carries the horizon device
// tick). Core states are left in s.ffStates for applySkip.
//
// A failed joint plan is no longer all-or-nothing: when at least one core is
// skippable while another is not, planSkip classifies every core anyway,
// records the per-core outcome in s.ffCanLag (classifications in s.ffStates),
// and sets s.ffMixed — runLoop then enters a decoupled lag stretch
// (decoupled.go) instead of stepping everything. ffMixed is reset on entry so
// the cheap pre-core bails (pending writeback, due hit) never leave a stale
// mask behind.
func (s *System) planSkip(ceilings []uint64) (k, devTicks int64, costly, paced bool) {
	s.ffMixed = false
	if len(s.pendingWB) > 0 {
		return 0, 0, false, false
	}
	kCap := s.opts.MaxCPUCycles - s.cpuCycle
	if kCap > ffMaxSpan {
		kCap = ffMaxSpan
	}
	if s.hits.Len() > 0 {
		d := s.hits.peek().due - s.cpuCycle
		if d <= 0 {
			return 0, 0, false, false // a hit completion fires on the next step
		}
		if d < kCap {
			kCap = d
		}
	}
	skippable, lagEligible := 0, 0
	for i, c := range s.cores {
		st := c.FFState()
		s.ffStates[i] = st
		s.ffCanLag[i] = false
		if !st.Skippable {
			continue
		}
		skippable++
		eligible := true
		if st.Burst || st.Fill {
			if st.MaxCycles < kCap {
				kCap = st.MaxCycles
			}
		}
		if kc, ok := s.ceilingHeadroom(i, ceilings); ok {
			kCap = min(kCap, kc)
			// A zero ceiling headroom means the very next tick's retire
			// group crosses: the core is skippable by class but not
			// lag-eligible (decoupled stretches must make progress).
			eligible = kc >= 1
		}
		s.ffCanLag[i] = eligible
		if eligible {
			lagEligible++
		}
	}
	if skippable < len(s.cores) {
		// Decoupling needs a second core: with one core there is nothing to
		// keep real while it lags, and the paced path is strictly cheaper.
		s.ffMixed = lagEligible > 0 && len(s.cores) > 1
		return 0, 0, false, false
	}
	if kCap < ffMinSpan {
		return 0, 0, false, false
	}

	horizon := s.jointHorizon()
	maxDev := horizon - s.ctrls[0].Clock()
	if maxDev < 0 {
		maxDev = 0
	}
	k, devTicks = s.clk.span(kCap, maxDev)
	if k < ffMinSpan && k < kCap {
		// Horizon-bound failure: every core is skippable but the memory
		// system is busy. A decoupled stretch lags them all through the
		// busy window (device-only stepping) far cheaper than event-paced
		// real steps; cap-bound failures (k == kCap) stay on the paced
		// path, where the bounding event clears within k+1 cycles. Single-
		// core systems stay paced too (same reasoning as the mixed case).
		s.ffMixed = lagEligible > 0 && len(s.cores) > 1
	}
	return k, devTicks, true, k < kCap
}

// jointHorizon returns the minimum NextEventCycle over all channels, cached
// across planning attempts: the cached joint span stays valid while every
// controller's HorizonGen is unchanged and the shared device clock sits
// strictly below it (each controller's horizon is then ≥ the joint minimum,
// so no memoised component has been reached). One generation check per
// channel replaces the per-channel horizon assembly on the common
// consecutive-attempt path.
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

// ceilingHeadroom returns how many CPU cycles core i may bulk-advance under
// its classification in s.ffStates[i] without crossing its RunFor ceiling,
// and false when no ceiling binds (no ceilings, the core is not bursting,
// or it is already past its ceiling). The per-cycle loop re-evaluates its
// stop condition every cycle, so neither a skip nor a lag may cross one.
func (s *System) ceilingHeadroom(i int, ceilings []uint64) (int64, bool) {
	c := s.cores[i]
	if !s.ffStates[i].Burst || ceilings == nil || c.Retired() >= ceilings[i] {
		return 0, false
	}
	return int64((ceilings[i] - 1 - c.Retired()) / uint64(c.RetireWidth())), true
}

// applySkip advances the whole system k CPU cycles at once: every core
// bulk-advances per its planned FFState (advanceCore), controllers and
// devices absorb the span's device ticks, and the clocks move.
func (s *System) applySkip(k, devTicks int64) {
	for i := range s.cores {
		s.advanceCore(i, k)
	}
	if devTicks > 0 {
		for _, ctrl := range s.ctrls {
			ctrl.SkipTicks(devTicks)
		}
	}
	s.clk.skip(k)
	s.cpuCycle += k
	s.ffSkips++
	s.ffSkipped += k
}

// advanceCore bulk-advances core i by k cycles under its classification in
// s.ffStates[i], for a joint skip (applySkip) and a lag flush (flushLag)
// alike. Epoch-series boundaries inside the span are observed exactly where
// the per-cycle loop would have observed them, with the cumulative retired
// count that held there; then the core's bulk advance (cpu.Core.Skip)
// runs. The span starts at the core's own clock on the system clock's scale
// (c.Cycle() + paused: cpuCycle for every core that is not lagged), which
// is where the per-cycle loop observes the series.
func (s *System) advanceCore(i int, k int64) {
	c := s.cores[i]
	st := s.ffStates[i]
	if s.ipcSeries != nil {
		series := s.ipcSeries[i]
		start := c.Cycle() + s.paused
		r0 := c.Retired()
		for nb := series.NextBoundary(); nb <= start+k; nb = series.NextBoundary() {
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
