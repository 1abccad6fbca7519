package mem

import (
	"reflect"
	"testing"

	"clrdram/internal/dram"
)

// The incremental-horizon tests: NextEventCycle's memoised assembly is
// checked against the scratch oracle (fullRescanHorizon) under randomized
// traffic, and SkipTicks against a cycle-by-cycle ticked twin across
// refresh-arm boundaries, drain-regime flips, and timeout closes. The
// schedule memo is lazy: only a failed scheduler scan republishes it.

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

// TestHorizonMatchesFullRescan drives random traffic and compares the
// memoised NextEventCycle against the mutation-free oracle every cycle. The
// incremental answer must never exceed the oracle (a too-large horizon would
// skip an event), and — in refresh-free configurations, where no tRFC-era
// underestimate can linger in a memo — must equal it whenever it is strictly
// ahead of the clock.
func TestHorizonMatchesFullRescan(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		exact bool // assert equality when the horizon is ahead of the clock
	}{
		{"lazy/no-refresh", Config{}, true},
		{"lazy/refresh", Config{
			MaxPostponedRefresh: 4,
			Refresh:             []RefreshStream{{Mode: dram.ModeDefault, Interval: 700}},
		}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := newTestController(t, tc.cfg)
			state := uint64(0x9e3779b97f4a7c15)
			for cycle := 0; cycle < 20_000; cycle++ {
				if cycle%3 == 0 {
					c.Enqueue(horizonTrafficStep(&state))
				}
				now := c.Clock()
				h := c.NextEventCycle()
				oracle := c.fullRescanHorizon(now)
				if h > oracle {
					t.Fatalf("cycle %d: incremental horizon %d exceeds oracle %d", now, h, oracle)
				}
				if tc.exact && h > now && h != oracle {
					t.Fatalf("cycle %d: settled incremental horizon %d != oracle %d", now, h, oracle)
				}
				c.Tick()
			}
		})
	}
}

// TestSkipTicksMatchesTickedTwin runs two identically-configured controllers
// through the same arrival schedule: one ticks every cycle, the other skips
// every dead span NextEventCycle exposes. Completion times, counter-for-
// counter stats, and the final clock must match exactly. The schedule mixes
// bursts (deep queues, capped hits, write drains) with long idle gaps that
// carry the skipping twin across refresh-arm boundaries and timeout closes.
func TestSkipTicksMatchesTickedTwin(t *testing.T) {
	type arrival struct {
		cycle int64
		req   Request // template; each controller gets its own copy
	}
	var schedule []arrival
	state := uint64(0x51a7b2c90ddc0ffe)
	cycle := int64(0)
	for len(schedule) < 600 {
		// A burst of 1-8 back-to-back arrivals, then a gap of up to ~2600
		// cycles (crossing refresh intervals while idle).
		state = state*6364136223846793005 + 1442695040888963407
		burst := int(state%8) + 1
		for i := 0; i < burst && len(schedule) < 600; i++ {
			schedule = append(schedule, arrival{cycle: cycle, req: *horizonTrafficStep(&state)})
			if state%3 == 0 {
				cycle++
			}
		}
		state = state*6364136223846793005 + 1442695040888963407
		cycle += int64(state % 2600)
	}
	end := cycle + 5_000

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

	run := func(skip bool) (done []completion, accepted int, st Stats, clock int64) {
		c := newTestController(t, cfg)
		next := 0
		for c.Clock() < end {
			now := c.Clock()
			for next < len(schedule) && schedule[next].cycle <= now {
				req := schedule[next].req // copy
				id := next
				req.OnComplete = func(at int64) { done = append(done, completion{id, at}) }
				if c.Enqueue(&req) {
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
					c.SkipTicks(n)
					continue
				}
			}
			c.Tick()
		}
		return done, accepted, c.Stats(), c.Clock()
	}

	tickedDone, tickedAcc, tickedStats, tickedClock := run(false)
	if len(tickedDone) == 0 || tickedStats.Refreshes == 0 || tickedStats.TimeoutCloses == 0 {
		t.Fatalf("weak reference run: %d completions, %d refreshes, %d timeout closes — schedule does not exercise the horizon components",
			len(tickedDone), tickedStats.Refreshes, tickedStats.TimeoutCloses)
	}
	skipDone, skipAcc, skipStats, skipClock := run(true)
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
}

// TestSkipTicksPanicsOutsideDrainFixpoint pins SkipTicks' precondition. With
// the read queue empty and one write queued, the drain hysteresis oscillates
// with period 2 (draining turns on for the empty read queue and off again
// for a write queue at or below WriteLow), so no span replay is exact; the
// memo stays unpublished, NextEventCycle answers "imminent", and a
// SkipTicks call there must panic rather than diverge.
func TestSkipTicksPanicsOutsideDrainFixpoint(t *testing.T) {
	c := newTestController(t, Config{})
	if !c.Enqueue(&Request{Addr: 0x40, Write: true}) {
		t.Fatal("write rejected")
	}
	if c.draining || len(c.readQ) != 0 || c.nextDraining(c.draining) == c.draining {
		t.Fatalf("setup is not the period-2 regime: draining=%v readQ=%d writeQ=%d",
			c.draining, len(c.readQ), len(c.writeQ))
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

// TestOpenRowQueuedMatchesScan checks the O(1) timeout-exemption counter
// against the queue scan it replaced: for every open bank, openRowQueued is
// nonzero exactly when some queued request targets the open row.
func TestOpenRowQueuedMatchesScan(t *testing.T) {
	c := newTestController(t, Config{
		Refresh: []RefreshStream{{Mode: dram.ModeDefault, Interval: 1100}},
	})
	state := uint64(0xfeedface8badf00d)
	banks := c.dev.NumBanks()
	for cycle := 0; cycle < 15_000; cycle++ {
		if cycle%4 == 0 {
			c.Enqueue(horizonTrafficStep(&state))
		}
		for b := 0; b < banks; b++ {
			open, row := c.dev.BankState(b)
			if !open {
				continue
			}
			if got, want := c.openRowQueued[b] > 0, c.rowHasQueuedRequest(b, row); got != want {
				t.Fatalf("cycle %d bank %d: openRowQueued=%d disagrees with queue scan (%v)",
					c.Clock(), b, c.openRowQueued[b], want)
			}
		}
		c.Tick()
	}
}
