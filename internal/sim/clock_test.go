package sim

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// legacyClock is the float64 CPU:device clock accumulator the integer clock
// replaced, kept here as the reference its ticks are checked against: every
// CPU cycle adds the period ratio and the controllers tick while the sum is
// at least 1, in exactly the order earlier versions of step() ran.
type legacyClock struct{ acc, per float64 }

func (l *legacyClock) cycle() (ticks int64) {
	for l.acc += l.per; l.acc >= 1; l.acc-- {
		ticks++
	}
	return ticks
}

// newClockSystem builds an idle one-core system under opts and returns it
// with the float ratio its device clock was derived from.
func newClockSystem(t *testing.T, opts Options) (*System, float64) {
	t.Helper()
	s, err := NewSystem([]workload.Profile{cachedProfile()}, core.Baseline(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, (1.0 / s.opts.CPUClockGHz) / s.devCfg.ClockNS
}

// TestDeviceClockDerivation pins the clocks NewSystem derives for the two
// standards at the default 4 GHz core, and checks each one tick
// for tick against the float64 accumulator over 10⁶ CPU cycles: both the
// controller ticks clockCycle runs and the closed form's one-cycle count.
func TestDeviceClockDerivation(t *testing.T) {
	for _, tc := range []struct {
		standard      string
		num, den, rem int64
		firstTicks    []int64
	}{
		{"ddr4-2400", 3, 10, -1, []int64{4, 7, 11, 14, 17, 21}},
		{"lpddr4-3200", 2, 5, 0, []int64{3, 5, 8, 10, 13, 15}},
	} {
		t.Run(tc.standard, func(t *testing.T) {
			opts := ffDiffOpts()
			opts.Standard = tc.standard
			s, ratio := newClockSystem(t, opts)
			if c := s.clk; c.num != tc.num || c.den != tc.den || c.rem != tc.rem {
				t.Fatalf("derived clock %d/%d from %d, want %d/%d from %d",
					c.num, c.den, c.rem, tc.num, tc.den, tc.rem)
			}
			ref := legacyClock{per: ratio}
			var seen []int64
			for n := int64(1); n <= 1_000_000; n++ {
				want := ref.cycle()
				predicted := s.clk.ticks(1)
				before := s.ctrls[0].Clock()
				s.clockCycle()
				got := s.ctrls[0].Clock() - before
				if got != want || predicted != want {
					t.Fatalf("cycle %d: clockCycle ticks %d times and the closed form predicts %d, float accumulator %d",
						n, got, predicted, want)
				}
				if got > 0 && len(seen) < len(tc.firstTicks) {
					seen = append(seen, n)
				}
			}
			for i, n := range tc.firstTicks {
				if seen[i] != n {
					t.Fatalf("first device ticks at CPU cycles %v, want %v", seen, tc.firstTicks)
				}
			}
		})
	}
}

// TestDeviceClockOtherRatios covers derivations off the two standards: a
// ratio with a small exact fraction (3.3 GHz on ddr4-2400 is
// 4/11, its float ratio just below it), a device faster than the core
// (several ticks per cycle), and a ratio no fraction of den ≤ 2¹⁶
// quotients to exactly (the nearest is used: the next convergent of
// 0.1234567891 after 10/81 has a den near 10⁷), also near maxClockRatio,
// where the replay's cycles carry some 40,000 ticks each. None of them
// allocates. A device faster than the core also runs through clockCycle.
func TestDeviceClockOtherRatios(t *testing.T) {
	for _, tc := range []struct {
		ratio         float64
		num, den, rem int64
	}{
		{(1.0 / 3.3) / (1.0 / 1.2), 4, 11, -1},
		{7.0 / 3, 7, 3, 0},
		{0.1234567891, 10, 81, -1},
		{40000.000123, 2601640008, 65041, 0},
	} {
		c := newDevClock(tc.ratio)
		if c.num != tc.num || c.den != tc.den || c.rem != tc.rem {
			t.Errorf("ratio %v: derived %d/%d from %d, want %d/%d from %d",
				tc.ratio, c.num, c.den, c.rem, tc.num, tc.den, tc.rem)
		}
		if n := testing.AllocsPerRun(3, func() { newDevClock(tc.ratio) }); n != 0 {
			t.Errorf("ratio %v: deriving the clock allocates %v times", tc.ratio, n)
		}
	}

	// Behind a 0.5 GHz core the device is the faster clock (12/5):
	// clockCycle must tick the controllers two or three times a cycle.
	opts := ffDiffOpts()
	opts.CPUClockGHz = 0.5
	s, _ := newClockSystem(t, opts)
	for n := 1; n <= 1000; n++ {
		want, before := s.clk.ticks(1), s.ctrls[0].Clock()
		s.clockCycle()
		if got := s.ctrls[0].Clock() - before; got != want || got < 2 {
			t.Fatalf("0.5 GHz cycle %d: clockCycle ticks %d times, the closed form %d", n, got, want)
		}
	}
}

// walkClock is the per-cycle integer walk the closed-form span replaces:
// the largest k ≤ kMax whose cycles carry at most maxDev device ticks, and
// the clock state after those k cycles.
func walkClock(c devClock, kMax, maxDev int64) (k, ticks int64, after devClock) {
	for k < kMax {
		next, t := c, ticks
		for next.rem += next.num; next.rem >= next.den; next.rem -= next.den {
			t++
		}
		if t > maxDev {
			break
		}
		c, k, ticks = next, k+1, t
	}
	return k, ticks, c
}

// idleHorizon is the joint horizon of controllers with no future events
// (mem's ffNever), the largest tick budget a span is asked about.
const idleHorizon = int64(1) << 62

// randLog draws from [0, max] with every power-of-two scale equally likely.
func randLog(rng *rand.Rand, max int64) int64 {
	n := int64(1) << uint(rng.Intn(bits.Len64(uint64(max))))
	return rng.Int63n(min(n, max) + 1)
}

// TestDeviceClockSpanMatchesWalk is the closed form's property test: for
// random clocks, starting remainders, span caps up to ffMaxSpan and tick
// budgets from 0 to the idle horizon, span answers what the per-cycle walk
// answers, skip lands the clock where the walk does, and idle counts the
// cycles the walk takes before its first tick.
func TestDeviceClockSpanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clocks := []devClock{{num: 3, den: 10}, {num: 2, den: 5}, {num: 4, den: 11}, {num: 7, den: 3}, {num: 1, den: 1}}
	for trial := 0; trial < 600; trial++ {
		c := clocks[trial%len(clocks)]
		c.rem = rng.Int63n(c.den+1) - 1 // −1 (a fresh clock) .. den−1
		kMax := randLog(rng, ffMaxSpan)
		maxDev := randLog(rng, idleHorizon)
		switch rng.Intn(10) {
		case 0:
			kMax = ffMaxSpan
		case 1:
			maxDev = 0
		case 2:
			maxDev = idleHorizon
		}
		wk, wt, after := walkClock(c, kMax, maxDev)
		k, ticks := c.span(kMax, maxDev)
		if k != wk || ticks != wt {
			t.Fatalf("clock %d/%d from %d, kMax %d, maxDev %d: span = (%d, %d), walk = (%d, %d)",
				c.num, c.den, c.rem, kMax, maxDev, k, ticks, wk, wt)
		}
		if wi, _, _ := walkClock(c, ffMaxSpan, 0); c.idle() != wi {
			t.Fatalf("clock %d/%d from %d: idle = %d, walk = %d", c.num, c.den, c.rem, c.idle(), wi)
		}
		if c.skip(k, ticks); c != after {
			t.Fatalf("kMax %d, maxDev %d: skip(%d, %d) lands on %+v, the walk on %+v", kMax, maxDev, k, ticks, c, after)
		}
	}
}

// TestFastForwardIdentityCPUClock runs the fast-forward on/off identity at a
// 3.3 GHz core, whose 4/11 clock puts the closed-form span and the jumps'
// idle cycles on a second ratio: one compute-bound core and the
// 1×mcf+3×gamess mix, which must lag cores on the way.
func TestFastForwardIdentityCPUClock(t *testing.T) {
	opts := ffDiffOpts()
	opts.CPUClockGHz = 3.3
	if s, _ := newClockSystem(t, opts); s.clk.num != 4 || s.clk.den != 11 {
		t.Fatalf("3.3 GHz clock is %d/%d, want 4/11", s.clk.num, s.clk.den)
	}
	ff, ticked := runBothWays(t, mustProfile(t, "416.gamess-like"), core.CLR(0.5), opts)
	assertIdenticalResults(t, ff, ticked)

	mix := hetMixes(t)[0]
	run := func(mode FFMode) (*System, Result) {
		o := opts
		o.FastForward = mode
		s, err := NewSystem(mix.Profiles[:], core.CLR(0.5), o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	s, on := run(FFOn)
	_, off := run(FFOff)
	assertIdenticalResults(t, on, off)
	if _, lagged := s.FFLagStats(); lagged == 0 {
		t.Error("the mix lagged no core-cycles at 3.3 GHz")
	}
}
