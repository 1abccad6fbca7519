package mem

import (
	"reflect"
	"testing"

	"clrdram/internal/dram"
)

// The incremental-horizon tests: every NextEventCycle answer is checked
// against what the ticked controller then does (checkHorizonTicks), and
// SkipTicks against a cycle-by-cycle ticked twin across refresh-arm
// boundaries, drain-regime flips, and timeout closes. The schedule memo is
// lazy: only a failed scheduler scan republishes it.

// horizonTrafficStep deterministically generates the next request of a
// traffic pattern mixing hot-row streaks (to trip the FR-FCFS row-hit cap)
// with uniform noise.
func horizonTrafficStep(state *uint64) *Request {
	*state = *state*6364136223846793005 + 1442695040888963407
	r := *state
	addr := r % (1 << 26)
	if r%10 < 7 {
		// Hot line pool: few distinct rows, so streaks build and conflicts
		// queue behind capped hits.
		addr = (r % 16) * 64
	}
	return &Request{Addr: addr, Write: r%5 == 4}
}

// arrival is one request of a bursty schedule, due at cycle.
type arrival struct {
	cycle int64
	req   Request // template; each controller gets its own copy
}

// burstySchedule generates n arrivals: bursts of 1-8 back-to-back requests
// of horizonTrafficStep's mix (deep queues, write drains), each followed by
// an idle gap of up to maxGap cycles, which carries a controller across
// refresh intervals and row-close deadlines while idle. With the skip
// twins' refresh streams the default composition trips the row-hit cap on
// (260, 1800) but never on (600, 2600). It also returns the cycle the last
// gap ends at.
func burstySchedule(n int, maxGap uint64) ([]arrival, int64) {
	var schedule []arrival
	state := uint64(0x51a7b2c90ddc0ffe)
	cycle := int64(0)
	for len(schedule) < n {
		state = state*6364136223846793005 + 1442695040888963407
		burst := int(state%8) + 1
		for i := 0; i < burst && len(schedule) < n; i++ {
			schedule = append(schedule, arrival{cycle: cycle, req: *horizonTrafficStep(&state)})
			if state%3 == 0 {
				cycle++
			}
		}
		state = state*6364136223846793005 + 1442695040888963407
		cycle += int64(state % maxGap)
	}
	return schedule, cycle
}

// horizonTally counts what a checkHorizonTicks run exercised.
type horizonTally struct {
	actions int // ticks that acted
	dead    int // ticks a horizon ahead of the clock declared dead
	met     int // tight runs: horizons ahead of the clock an action landed on
}

// checkHorizonTicks is the tick oracle of the horizon. It drives c through
// the schedule one Tick per cycle until end, asks NextEventCycle before
// every tick, and checks each answer against what the ticks then do. A tick
// acts when it issues a command, fires a completion, arms or retires a
// refresh (refPending changes) or flips the drain flag: everything a
// skipped span must leave frozen.
//
//   - Safety: until the next arrival, no tick acts before the largest
//     horizon returned since that arrival.
//   - Tightness (tight): a horizon ahead of the clock is returned again on
//     every cycle up to it, and the first action lands exactly on it. Only
//     refresh-free runs are tight: during a refresh's tRFC the device
//     answers floors clock-relatively, so a memo may lawfully sit below the
//     real action.
func checkHorizonTicks(t *testing.T, c *Controller, schedule []arrival, end int64, tight bool) horizonTally {
	t.Helper()
	var tally horizonTally
	completed := 0
	commands := func() (n uint64) {
		for _, k := range c.dev.CmdCounts {
			n += k
		}
		return n
	}
	bound := int64(-1)    // largest horizon since the last arrival
	promised := int64(-1) // tight: the horizon ahead of the clock awaiting its action
	since := int64(0)     // the cycle promised was first returned
	next := 0
	for c.Clock() < end {
		now := c.Clock()
		for next < len(schedule) && schedule[next].cycle <= now {
			req := schedule[next].req
			req.OnComplete = func(int64) { completed++ }
			enqueue(c, &req)
			next++
			bound, promised = -1, -1
		}
		h := c.NextEventCycle()
		if h < now {
			t.Fatalf("cycle %d: horizon %d is behind the clock", now, h)
		}
		bound = max(bound, h)
		if h > now {
			tally.dead++
		}
		if tight {
			if promised >= 0 && h != promised {
				t.Fatalf("cycle %d: horizon %d moved from %d (returned at cycle %d) without an action or arrival",
					now, h, promised, since)
			}
			if promised < 0 && h > now {
				promised, since = h, now
			}
		}
		cmds, done, ref, drain := commands(), completed, c.refPending, c.draining
		c.Tick()
		if commands() == cmds && completed == done && c.refPending == ref && c.draining == drain {
			if promised == now {
				t.Fatalf("cycle %d: no action on the horizon returned at cycle %d", now, since)
			}
			continue
		}
		tally.actions++
		if now < bound {
			t.Fatalf("cycle %d: the tick acted before the horizon %d (commands %d→%d, completions %d→%d, refPending %d→%d, draining %v→%v)",
				now, bound, cmds, commands(), done, completed, ref, c.refPending, drain, c.draining)
		}
		if promised >= 0 {
			tally.met++
			promised = -1
		}
	}
	return tally
}

// TestHorizonMatchesTicks runs the tick oracle over the default composition
// with the bursty schedule, refresh-free (tight) and with a postponing
// refresh stream (safety only).
func TestHorizonMatchesTicks(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		tight bool
	}{
		{"no-refresh", Config{}, true},
		{"refresh", Config{
			MaxPostponedRefresh: 4,
			Refresh:             []RefreshStream{{Mode: dram.ModeDefault, Interval: 700}},
		}, false},
	}
	schedule, last := burstySchedule(600, 2600)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := newTestController(t, tc.cfg)
			tally := checkHorizonTicks(t, c, schedule, last+5_000, tc.tight)
			t.Logf("%+v over %d cycles", tally, c.Clock())
			st := c.Stats()
			if st.TimeoutCloses == 0 || tally.dead == 0 || (tc.tight && tally.met == 0) ||
				(len(tc.cfg.Refresh) > 0 && st.Refreshes == 0) {
				t.Fatalf("weak run: %+v, stats %+v", tally, st)
			}
		})
	}
}

// TestSkipTicksMatchesTickedTwin runs two identically-configured controllers
// through the same arrival schedule: one ticks every cycle, the other skips
// every dead span NextEventCycle exposes. Completion times, counter-for-
// counter stats, and the final clock must match exactly. The schedules mix
// bursts (deep queues, write drains) with long idle gaps that carry the
// skipping twin across refresh-arm boundaries and timeout closes. The
// cap-trips leg's denser schedule also trips the row-hit cap, and its
// skipping twin must replay CapTrips in SkipTicks spans.
func TestSkipTicksMatchesTickedTwin(t *testing.T) {
	cfg := Config{
		MaxPostponedRefresh: 2,
		Refresh: []RefreshStream{
			{Mode: dram.ModeDefault, Interval: 900},
			{Mode: dram.ModeHighPerf, Interval: 1700},
		},
	}
	type completion struct {
		ID    int
		Cycle int64
	}
	legs := []struct {
		name     string
		n        int
		maxGap   uint64
		tail     int64
		capTrips bool // the leg must trip the cap and replay trips in spans
	}{
		{"bursty", 600, 2600, 5_000, false},
		{"cap-trips", 260, 1800, 4_000, true},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			schedule, last := burstySchedule(leg.n, leg.maxGap)
			end := last + leg.tail
			// run returns what the controller did and the CapTrips its
			// SkipTicks spans added.
			run := func(skip bool) (done []completion, accepted int, st Stats, clock int64, replayed uint64) {
				c := newTestController(t, cfg)
				next := 0
				for c.Clock() < end {
					now := c.Clock()
					for next < len(schedule) && schedule[next].cycle <= now {
						req := schedule[next].req // copy
						id := next
						req.OnComplete = func(at int64) { done = append(done, completion{id, at}) }
						if enqueue(c, &req) {
							accepted++
						}
						next++
					}
					if skip {
						limit := end
						if next < len(schedule) && schedule[next].cycle < limit {
							limit = schedule[next].cycle
						}
						if h := c.NextEventCycle(); h < limit {
							limit = h
						}
						if n := limit - now; n > 0 {
							trips := c.st.CapTrips
							c.SkipTicks(n)
							replayed += c.st.CapTrips - trips
							continue
						}
					}
					c.Tick()
				}
				return done, accepted, c.Stats(), c.Clock(), replayed
			}

			tickedDone, tickedAcc, tickedStats, tickedClock, _ := run(false)
			if len(tickedDone) == 0 || tickedStats.Refreshes == 0 || tickedStats.TimeoutCloses == 0 ||
				(leg.capTrips && tickedStats.CapTrips == 0) {
				t.Fatalf("weak reference run: %d completions, %d refreshes, %d timeout closes, %d CapTrips — schedule does not exercise the horizon components",
					len(tickedDone), tickedStats.Refreshes, tickedStats.TimeoutCloses, tickedStats.CapTrips)
			}
			skipDone, skipAcc, skipStats, skipClock, replayed := run(true)
			t.Logf("%d CapTrips, %d of them replayed by SkipTicks", skipStats.CapTrips, replayed)
			if leg.capTrips && replayed == 0 {
				t.Errorf("weak run: SkipTicks replayed none of the %d CapTrips", skipStats.CapTrips)
			}
			if skipClock != tickedClock {
				t.Errorf("final clock %d != ticked %d", skipClock, tickedClock)
			}
			if skipAcc != tickedAcc {
				t.Errorf("accepted %d != ticked %d", skipAcc, tickedAcc)
			}
			if !reflect.DeepEqual(skipDone, tickedDone) {
				t.Errorf("completion log diverges (%d vs %d entries)", len(skipDone), len(tickedDone))
			}
			if !reflect.DeepEqual(skipStats, tickedStats) {
				t.Errorf("stats diverge:\n skip:   %+v\n ticked: %+v", skipStats, tickedStats)
			}
		})
	}
}

// TestSkipTicksPanicsOutsideDrainFixpoint pins SkipTicks' precondition. With
// the read queue empty and one write queued, the drain hysteresis oscillates
// with period 2 (draining turns on for the empty read queue and off again
// for a write queue at or below WriteLow), so no span replay is exact; the
// memo stays unpublished, NextEventCycle answers "imminent", and a
// SkipTicks call there must panic rather than diverge.
func TestSkipTicksPanicsOutsideDrainFixpoint(t *testing.T) {
	c := newTestController(t, Config{})
	if !enqueue(c, &Request{Addr: 0x40, Write: true}) {
		t.Fatal("write rejected")
	}
	if c.draining || c.read.n != 0 || c.nextDraining(c.draining) == c.draining {
		t.Fatalf("setup is not the period-2 regime: draining=%v read queue %d, write queue %d",
			c.draining, c.read.n, c.write.n)
	}
	if h := c.NextEventCycle(); h != c.Clock() {
		t.Errorf("NextEventCycle = %d, want the clock %d (no span may start here)", h, c.Clock())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SkipTicks(1) outside a drain fixpoint did not panic")
		}
	}()
	c.SkipTicks(1)
}

// rowHasQueuedRequest reports whether any queued request targets (bank,row):
// the queue walk openRowQueued replaced, kept as its test oracle.
func (c *Controller) rowHasQueuedRequest(bank, row int) bool {
	for _, q := range []*queue{&c.read, &c.write} {
		for _, r := range q.banks[bank].reqs {
			if r.decoded.Row == row {
				return true
			}
		}
	}
	return false
}

// TestOpenRowQueuedMatchesScan checks the O(1) timeout-exemption check
// (openRowQueued, read from the queues' hit masks) against the queue scan it
// replaced: for every open bank, openRowQueued holds exactly when some queued
// request targets the open row.
func TestOpenRowQueuedMatchesScan(t *testing.T) {
	c := newTestController(t, Config{
		Refresh: []RefreshStream{{Mode: dram.ModeDefault, Interval: 1100}},
	})
	state := uint64(0xfeedface8badf00d)
	banks := c.dev.NumBanks()
	for cycle := 0; cycle < 15_000; cycle++ {
		if cycle%4 == 0 {
			enqueue(c, horizonTrafficStep(&state))
		}
		for b := 0; b < banks; b++ {
			open, row := c.dev.BankState(b)
			if !open {
				continue
			}
			if got, want := c.openRowQueued(b), c.rowHasQueuedRequest(b, row); got != want {
				t.Fatalf("cycle %d bank %d: openRowQueued=%v disagrees with queue scan (%v)",
					c.Clock(), b, got, want)
			}
		}
		c.Tick()
	}
}
