package sim

import "math"

// The CPU:device clock (DESIGN.md §9). Every CPU cycle adds num to rem and
// the controllers tick once for each den that rem reaches, so the next k CPU
// cycles carry (rem + num·k)/den device ticks: a skip span is one division.
// NewSystem picks num/den and the starting rem so the ticks land where the
// float64 accumulator of earlier versions (acc += period ratio; tick while
// acc ≥ 1) put them: ddr4-2400 at 4 GHz is 3/10 from −1 (ticks at cycles 4,
// 7, 11, 14, 17, 21, …; the float ratio lies just below 3/10) and
// lpddr4-3200 is 2/5 from 0. Other ratios get the derived fraction, whose
// ticks may land elsewhere wherever the float accumulator drifted.
type devClock struct {
	num, den, rem int64
}

// maxClockRatio is the largest CPU:device period ratio NewSystem accepts, a
// device clock 2¹⁶ times the core's. It keeps the derivation's integers,
// num = round(ratio·den) and den·⌊acc⌋, far below int64 overflow, and the
// float accumulator far below 2⁵³, where its acc-- stops being exact.
const maxClockRatio = 1 << 16

// newDevClock derives the clock for ratio = CPU period / device period, at
// most maxClockRatio: the smallest-denominator fraction whose float64
// quotient equals ratio (else the nearest one with den ≤ 2¹⁶), from
// whichever of rem = 0 and rem = −1 replays the float accumulator over the
// first 4·den+64 cycles (else 0).
func newDevClock(ratio float64) devClock {
	c, best := devClock{num: 1, den: 1 << 16}, math.Inf(1)
	for den := int64(1); den <= 1<<16 && best > 0; den++ {
		num := max(int64(math.Round(ratio*float64(den))), 1)
		if d := math.Abs(float64(num)/float64(den) - ratio); d < best {
			best, c.num, c.den = d, num, den
		}
	}
	for _, rem := range [...]int64{0, -1} {
		if c.replaysFloat(ratio, rem) {
			c.rem = rem
			return c
		}
	}
	return c
}

// replaysFloat reports whether the clock started from rem ticks on the same
// CPU cycles as the float64 accumulator over the first 4·den+64 cycles: each
// float tick takes den off rem, so rem leaves [0, den) as soon as the two
// tick counts of a cycle differ. The accumulator's per-tick acc-- is exact
// below 2⁵³, so a cycle's ⌊acc⌋ ticks take ⌊acc⌋ off it in one exact step.
func (c devClock) replaysFloat(ratio float64, rem int64) bool {
	acc := 0.0
	for n := 4*c.den + 64; n > 0; n-- {
		acc += ratio
		t := math.Floor(acc)
		acc -= t
		if rem += c.num - c.den*int64(t); rem < 0 || rem >= c.den {
			return false
		}
	}
	return true
}

// ticks returns how many device ticks the next k CPU cycles carry. Only
// k = 0 from rem = −1 has a negative numerator; the max keeps that at zero
// ticks for den = 1 too, where truncation alone would not.
func (c *devClock) ticks(k int64) int64 { return max((c.rem+c.num*k)/c.den, 0) }

// span returns the largest k ≤ kMax whose cycles carry at most maxDev device
// ticks, and those ticks. kMax ≤ ffMaxSpan keeps num·kMax from overflowing;
// den·(maxDev+1) is formed only once maxDev is below the span's tick count,
// since an idle horizon leaves maxDev near 2⁶².
func (c *devClock) span(kMax, maxDev int64) (k, ticks int64) {
	if t := c.ticks(kMax); t <= maxDev {
		return kMax, t
	}
	k = (c.den*(maxDev+1) - c.rem - 1) / c.num
	return k, c.ticks(k)
}

// idle returns how many CPU cycles pass before the next device tick: the
// largest k with ticks(k) = 0, span(kMax, 0) for any kMax ≥ k. It takes one
// division, none when the next cycle ticks.
func (c *devClock) idle() int64 {
	if c.rem+c.num >= c.den {
		return 0
	}
	return (c.den - c.rem - 1) / c.num
}

// skip moves the clock over k CPU cycles carrying ticks device ticks, which
// the caller applies in bulk.
func (c *devClock) skip(k, ticks int64) { c.rem += c.num*k - c.den*ticks }

// clockCycle advances the device clock one CPU cycle, ticking every
// controller once per device cycle that falls due (more than once when the
// device is the faster clock).
func (s *System) clockCycle() {
	for s.clk.rem += s.clk.num; s.clk.rem >= s.clk.den; s.clk.rem -= s.clk.den {
		for _, ctrl := range s.ctrls {
			ctrl.Tick()
		}
	}
}
