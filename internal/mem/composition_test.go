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
}

func TestDefaultCompositionResolution(t *testing.T) {
	c := newTestController(t, Config{})
	want := fmt.Sprintf("scheduler=%s rowpolicy=%s", DefaultScheduler, DefaultRowPolicy)
	if got := c.Composition(); got != want {
		t.Fatalf("zero-config composition = %q, want %q", got, want)
	}
}

// compositionConfig is the matrix configuration of one scheduler ×
// row-policy pair: a hit limit low enough for hitcount to trip, and two
// postponing refresh streams unless refresh is false.
func compositionConfig(sched, policy string, refresh bool) Config {
	cfg := Config{Scheduler: sched, RowPolicy: policy, MaxRowHits: 6}
	if refresh {
		cfg.MaxPostponedRefresh = 2
		cfg.Refresh = []RefreshStream{
			{Mode: dram.ModeDefault, Interval: 900},
			{Mode: dram.ModeHighPerf, Interval: 1700},
		}
	}
	return cfg
}

// TestCompositionSkipVsTickedTwin runs the skip-vs-ticked differential of
// horizon_test.go over the full scheduler × row-policy matrix: for every
// pair, the controller that jumps dead spans via NextEventCycle/SkipTicks
// must match the per-cycle twin completion-for-completion and
// counter-for-counter.
func TestCompositionSkipVsTickedTwin(t *testing.T) {
	schedule, last := burstySchedule(260, 1800)
	end := last + 4_000

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
				enqueue(c, &req)
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
				cfg := compositionConfig(sched, policy, true)
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

// TestCompositionHorizonNeverOvershoots runs the tick oracle of
// horizon_test.go (checkHorizonTicks) over every scheduler × row-policy
// pair: refresh-free, where every horizon must also be tight, and with the
// matrix's two postponing refresh streams, where it must never overshoot
// what the ticks do.
func TestCompositionHorizonNeverOvershoots(t *testing.T) {
	schedule, last := burstySchedule(600, 2600)
	for _, sched := range SchedulerNames() {
		for _, policy := range RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				for _, refresh := range []bool{false, true} {
					c := newTestController(t, compositionConfig(sched, policy, refresh))
					tally := checkHorizonTicks(t, c, schedule, last+5_000, !refresh)
					t.Logf("refresh %v: %+v over %d cycles", refresh, tally, c.Clock())
					if tally.dead == 0 || (!refresh && tally.met == 0) {
						t.Fatalf("weak run (refresh %v): %+v", refresh, tally)
					}
				}
			})
		}
	}
}
