package mem

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"clrdram/internal/dram"
)

// Composition tests: config validation returns typed errors, the registry
// resolves every advertised name, and — the load-bearing contract — every
// scheduler × row-policy pair keeps the fast-forward path bit-identical to
// the per-cycle reference loop (the horizon hooks each implementation
// exposes may only ever underestimate).

func TestConfigValidationTypedErrors(t *testing.T) {
	dev := dram.NewDevice(smallCfg())
	cases := []struct {
		name  string
		cfg   Config
		field string
		want  error
	}{
		{"watermarks inverted", Config{WriteLow: 40, WriteHigh: 8}, "WriteLow", ErrWatermarksInverted},
		{"watermarks equal", Config{WriteLow: 16, WriteHigh: 16}, "WriteLow", ErrWatermarksInverted},
		{"negative row-hit cap", Config{RowHitCap: -1}, "RowHitCap", ErrRowHitCapInvalid},
		{"negative hit limit", Config{MaxRowHits: -3}, "MaxRowHits", ErrRowHitCapInvalid},
		{"unknown scheduler", Config{Scheduler: "bliss"}, "Scheduler", ErrUnknownScheduler},
		{"unknown row policy", Config{RowPolicy: "adaptive"}, "RowPolicy", ErrUnknownRowPolicy},
		{"unknown mapper", Config{Mapper: "xor-fold"}, "Mapper", ErrUnknownMapper},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewController(dev, tc.cfg)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want wrapping %v", err, tc.want)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

func TestRegistryResolvesEveryName(t *testing.T) {
	dev := smallCfg()
	for _, n := range SchedulerNames() {
		s, err := NewScheduler(n, Config{})
		if err != nil || s.Name() != n {
			t.Errorf("NewScheduler(%q) = %v, %v", n, s, err)
		}
	}
	for _, n := range RowPolicyNames() {
		p, err := NewRowPolicy(n, dev, Config{RowTimeoutNS: 120})
		if err != nil || p.Name() != n {
			t.Errorf("NewRowPolicy(%q) = %v, %v", n, p, err)
		}
	}
	for _, n := range MapperNames() {
		m, err := NewAddressMapper(n, dev, Config{})
		if err != nil || m.Name() != n {
			t.Errorf("NewAddressMapper(%q) = %v, %v", n, m, err)
		}
	}
}

func TestDefaultCompositionResolution(t *testing.T) {
	c := newTestController(t, Config{})
	want := fmt.Sprintf("scheduler=%s rowpolicy=%s mapper=%s",
		DefaultScheduler, DefaultRowPolicy, DefaultMapper)
	if got := c.Composition(); got != want {
		t.Fatalf("zero-config composition = %q, want %q", got, want)
	}
	// Scheme-based configuration keeps its mapper when Mapper is unset.
	c2 := newTestController(t, Config{Scheme: SchemeRowColBank})
	if got := c2.Mapper().Name(); got != SchemeRowColBank.String() {
		t.Fatalf("Scheme back-compat mapper = %q, want %q", got, SchemeRowColBank.String())
	}
}

// TestCompositionSkipVsTickedTwin runs the skip-vs-ticked differential of
// horizon_test.go over the full scheduler × row-policy matrix: for every
// pair, the controller that jumps dead spans via NextEventCycle/SkipTicks
// must match the per-cycle twin completion-for-completion and
// counter-for-counter.
func TestCompositionSkipVsTickedTwin(t *testing.T) {
	type arrival struct {
		cycle int64
		req   Request
	}
	var schedule []arrival
	state := uint64(0x51a7b2c90ddc0ffe)
	cycle := int64(0)
	for len(schedule) < 260 {
		state = state*6364136223846793005 + 1442695040888963407
		burst := int(state%8) + 1
		for i := 0; i < burst && len(schedule) < 260; i++ {
			schedule = append(schedule, arrival{cycle: cycle, req: *horizonTrafficStep(&state)})
			if state%3 == 0 {
				cycle++
			}
		}
		state = state*6364136223846793005 + 1442695040888963407
		cycle += int64(state % 1800)
	}
	end := cycle + 4_000

	type completion struct {
		ID    int
		Cycle int64
	}
	run := func(t *testing.T, cfg Config, skip bool) (done []completion, st Stats, clock int64) {
		c := newTestController(t, cfg)
		next := 0
		for c.Clock() < end {
			now := c.Clock()
			for next < len(schedule) && schedule[next].cycle <= now {
				req := schedule[next].req
				id := next
				req.OnComplete = func(at int64) { done = append(done, completion{id, at}) }
				c.Enqueue(&req)
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
		return done, c.Stats(), c.Clock()
	}

	for _, sched := range SchedulerNames() {
		for _, policy := range RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				cfg := Config{
					Scheduler:           sched,
					RowPolicy:           policy,
					MaxRowHits:          6, // low enough for hitcount to trip
					MaxPostponedRefresh: 2,
					Refresh: []RefreshStream{
						{Mode: dram.ModeDefault, Interval: 900},
						{Mode: dram.ModeHighPerf, Interval: 1700},
					},
				}
				tickedDone, tickedStats, tickedClock := run(t, cfg, false)
				if len(tickedDone) == 0 {
					t.Fatal("weak reference run: no completions")
				}
				skipDone, skipStats, skipClock := run(t, cfg, true)
				if skipClock != tickedClock {
					t.Errorf("final clock %d != ticked %d", skipClock, tickedClock)
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
}

// TestCompositionHorizonNeverOvershoots drives every pair through the
// incremental-vs-oracle check of TestHorizonMatchesFullRescan: the memoised
// horizon must never exceed the mutation-free full rescan.
func TestCompositionHorizonNeverOvershoots(t *testing.T) {
	for _, sched := range SchedulerNames() {
		for _, policy := range RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				c := newTestController(t, Config{Scheduler: sched, RowPolicy: policy, MaxRowHits: 6})
				state := uint64(0x9e3779b97f4a7c15)
				for cycle := 0; cycle < 6_000; cycle++ {
					if cycle%3 == 0 {
						c.Enqueue(horizonTrafficStep(&state))
					}
					now := c.Clock()
					if h, oracle := c.NextEventCycle(), c.fullRescanHorizon(now); h > oracle {
						t.Fatalf("cycle %d: incremental horizon %d exceeds oracle %d", now, h, oracle)
					}
					c.Tick()
				}
			})
		}
	}
}
