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
//     no-op, a counted stall, or a full-width pure-bubble burst,
//   - a port-blocked core's target queue stays full (queue lengths are
//     frozen because nothing enqueues or issues during the span), and
//   - no controller reaches its horizon: the device ticks accompanying the
//     k CPU cycles stay strictly inside every controller's dead span.
//
// Horizons are lower bounds — an underestimate costs real ticks, never
// correctness — and the CPU:DRAM clock ratio is walked with the exact
// float64 accumulator operation order of step(), so the device clocks land
// on the same cycles they would have cycle-by-cycle.

const (
	// ffMaxSpan bounds one skip so the accumulator walk and bulk updates
	// stay cheap relative to the span they replace.
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
				k, devTicks, accAfter, costly, paced := s.planSkip(ceilings)
				if k >= ffMinSpan {
					s.applySkip(k, devTicks, accAfter)
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

// portAccepts translates core i's retried address to its channel, records
// the channel in ffPortCh[i] for the decoupled wake check, and reports
// whether that channel's read queue would accept the record now.
func (s *System) portAccepts(i int, addr uint64) bool {
	ch, _ := s.mapper.TranslateChannel(s.llc.LineAddr(s.bases[i] + addr))
	s.ffPortCh[i] = ch
	return s.ctrls[ch].CanEnqueue(false)
}

// planSkip determines the longest skippable span from the current state. It
// returns the CPU-cycle count k (0 if the next cycle must run for real), the
// number of device ticks the span carries, the accumulator value after it,
// whether the plan got as far as the controller-horizon recomputation (the
// expensive stage — runLoop's backoff keys off it), and whether the span was
// bounded by the controller horizon (paced — the cycle after the span
// carries the horizon device tick). Core states are left in s.ffStates for
// applySkip.
//
// A failed joint plan is no longer all-or-nothing: when at least one core is
// skippable while another is not, planSkip classifies every core anyway,
// records the per-core outcome in s.ffCanLag (classifications in s.ffStates),
// and sets s.ffMixed — runLoop then enters a decoupled lag stretch
// (decoupled.go) instead of stepping everything. ffMixed is reset on entry so
// the cheap pre-core bails (pending writeback, due hit) never leave a stale
// mask behind.
func (s *System) planSkip(ceilings []uint64) (k, devTicks int64, accAfter float64, costly, paced bool) {
	s.ffMixed = false
	if len(s.pendingWB) > 0 {
		return 0, 0, 0, false, false
	}
	kCap := s.opts.MaxCPUCycles - s.cpuCycle
	if kCap > ffMaxSpan {
		kCap = ffMaxSpan
	}
	if s.hits.Len() > 0 {
		d := s.hits.peek().due - s.cpuCycle
		if d <= 0 {
			return 0, 0, 0, false, false // a hit completion fires on the next step
		}
		if d < kCap {
			kCap = d
		}
	}
	skippable, lagEligible := 0, 0
	for i, c := range s.cores {
		st := c.FFState()
		if st.Skippable && st.NeedPortBlocked {
			// Valid only while the memory system rejects the pending record.
			// Both Load and Store gate on the read queue (a store miss
			// fetches the line), and queue lengths are frozen for the span.
			if s.portAccepts(i, st.Addr) {
				st.Skippable = false // the port would accept: the access must run
			}
		}
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
		if st.Burst {
			if ceilings != nil && c.Retired() < ceilings[i] {
				// Never cross a RunFor ceiling mid-skip: the per-cycle loop
				// re-evaluates its stop condition every cycle.
				kc := int64((ceilings[i] - 1 - c.Retired()) / uint64(c.RetireWidth()))
				if kc < kCap {
					kCap = kc
				}
				// A zero ceiling headroom means the very next tick's retire
				// group crosses: the core is skippable by class but not
				// lag-eligible (decoupled stretches must make progress).
				eligible = kc >= 1
			}
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
		return 0, 0, 0, false, false
	}
	if kCap < ffMinSpan {
		return 0, 0, 0, false, false
	}

	horizon := s.jointHorizon()
	maxDev := horizon - s.ctrls[0].Clock()
	if maxDev < 0 {
		maxDev = 0
	}
	k, devTicks, accAfter = s.walkAccumulator(kCap, maxDev)
	if k < ffMinSpan && k < kCap {
		// Horizon-bound failure: every core is skippable but the memory
		// system is busy. A decoupled stretch lags them all through the
		// busy window (device-only stepping) far cheaper than event-paced
		// real steps; cap-bound failures (k == kCap) stay on the paced
		// path, where the bounding event clears within k+1 cycles. Single-
		// core systems stay paced too (same reasoning as the mixed case).
		s.ffMixed = lagEligible > 0 && len(s.cores) > 1
	}
	return k, devTicks, accAfter, true, k < kCap
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

// walkAccumulator finds the largest k ≤ kMax whose span carries at most
// maxDev device ticks, landing the post-span accumulator bit-identically to
// k real steps: it replays step()'s exact float64 operations cycle by cycle.
func (s *System) walkAccumulator(kMax, maxDev int64) (k, devTicks int64, accAfter float64) {
	acc := s.dramAcc
	per := s.dramPerCPU
	for k < kMax {
		a := acc + per
		t := devTicks
		for a >= 1 {
			a--
			t++
		}
		if t > maxDev {
			break
		}
		acc, devTicks = a, t
		k++
	}
	return k, devTicks, acc
}

// applySkip advances the whole system k CPU cycles at once: epoch-series
// boundaries are observed exactly where the per-cycle loop would have
// observed them (with the cumulative retired count that held there), cores
// bulk-advance per their planned FFState, controllers and devices absorb the
// span's device ticks, and the clocks move.
func (s *System) applySkip(k, devTicks int64, accAfter float64) {
	if s.ipcSeries != nil {
		end := s.cpuCycle + k
		for i, c := range s.cores {
			series := s.ipcSeries[i]
			st := s.ffStates[i]
			r0 := c.Retired()
			for nb := series.NextBoundary(); nb <= end; nb = series.NextBoundary() {
				r := r0
				if st.Burst {
					// The per-cycle loop observes after the step: at clock
					// nb the core has retired (nb − start) further cycles'
					// worth of instructions.
					r += uint64(nb-s.cpuCycle) * uint64(c.RetireWidth())
				}
				series.Observe(nb, float64(r))
			}
		}
	}
	for i, c := range s.cores {
		st := s.ffStates[i]
		switch {
		case st.Burst:
			c.SkipBurst(k)
		case st.Fill:
			c.SkipFill(k)
		default:
			c.SkipStalled(k, st)
		}
	}
	if devTicks > 0 {
		for _, ctrl := range s.ctrls {
			ctrl.SkipTicks(devTicks)
		}
	}
	s.dramAcc = accAfter
	s.cpuCycle += k
	s.ffSkips++
	s.ffSkipped += k
}
