package mem

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"clrdram/internal/dram"
)

// Composition tests: config validation returns typed errors, the name
// lookups resolve every advertised name, and — the load-bearing contract — every
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
	if !sort.StringsAreSorted(SchedulerNames()) || !sort.StringsAreSorted(RowPolicyNames()) {
		t.Errorf("name lists not sorted: %v, %v", SchedulerNames(), RowPolicyNames())
	}
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
	if got := c.sched.Name(); got != DefaultScheduler {
		t.Errorf("zero-config scheduler = %q, want %q", got, DefaultScheduler)
	}
	if got := c.policy.Name(); got != DefaultRowPolicy {
		t.Errorf("zero-config row policy = %q, want %q", got, DefaultRowPolicy)
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

// twinRun is what one controller did over the composition schedule.
type twinRun struct {
	log      commandLog
	done     []loggedCompletion
	replayed uint64 // CapTrips added by ticks and skips that started on a valid schedule memo
	st       Stats
	clock    int64
}

// runTwin drives a controller of cfg through schedule until end. With skip
// it jumps every dead span NextEventCycle exposes (SkipTicks); with memoFree
// it drops every horizon memo (dirtyAllHorizon) before each Tick, so each of
// its cycles runs a real scheduler scan and re-derives every bank's close
// cycle.
func runTwin(t *testing.T, cfg Config, schedule []arrival, end int64, skip, memoFree bool) *twinRun {
	t.Helper()
	r := &twinRun{}
	devCfg := smallCfg()
	devCfg.Listener = &r.log
	c, err := NewController(dram.NewDevice(devCfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for c.Clock() < end {
		now := c.Clock()
		for next < len(schedule) && schedule[next].cycle <= now {
			req := schedule[next].req
			id := next
			req.OnComplete = func(at int64) { r.done = append(r.done, loggedCompletion{id, at}) }
			enqueue(c, &req)
			next++
		}
		if memoFree {
			c.dirtyAllHorizon()
		}
		memo, trips := c.ffSchedValid && c.ffSched > now, c.st.CapTrips
		var span int64
		if skip {
			limit := min(end, c.NextEventCycle())
			if next < len(schedule) {
				limit = min(limit, schedule[next].cycle)
			}
			span = limit - now
		}
		if span > 0 {
			c.SkipTicks(span)
		} else {
			c.Tick()
		}
		if memo {
			r.replayed += c.st.CapTrips - trips
		}
	}
	r.st, r.clock = c.Stats(), c.Clock()
	return r
}

// diffTwins reports every way run b diverges from the reference run a.
func diffTwins(t *testing.T, a, b *twinRun) {
	t.Helper()
	if a.clock != b.clock {
		t.Errorf("final clock %d != reference %d", b.clock, a.clock)
	}
	if !reflect.DeepEqual(a.log.cmds, b.log.cmds) {
		t.Errorf("command logs diverge (%d vs reference %d commands)", len(b.log.cmds), len(a.log.cmds))
	}
	if !reflect.DeepEqual(a.done, b.done) {
		t.Errorf("completion logs diverge (%d vs reference %d entries)", len(b.done), len(a.done))
	}
	if !reflect.DeepEqual(a.st, b.st) {
		t.Errorf("stats diverge:\n got:       %+v\n reference: %+v", b.st, a.st)
	}
}

// TestCompositionSkipVsTickedTwin runs the skip-vs-ticked differential of
// horizon_test.go over the full scheduler × row-policy matrix: for every
// pair, the controller that jumps dead spans via NextEventCycle/SkipTicks
// must match the per-cycle twin command-for-command,
// completion-for-completion and counter-for-counter.
func TestCompositionSkipVsTickedTwin(t *testing.T) {
	schedule, last := burstySchedule(260, 1800)
	end := last + 4_000
	for _, sched := range SchedulerNames() {
		for _, policy := range RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				cfg := compositionConfig(sched, policy, true)
				ticked := runTwin(t, cfg, schedule, end, false, false)
				if len(ticked.done) == 0 {
					t.Fatal("weak reference run: no completions")
				}
				diffTwins(t, ticked, runTwin(t, cfg, schedule, end, true, false))
			})
		}
	}
}

// TestMemoFreeTwin checks every memo against an oracle that uses none: for
// every scheduler × row-policy pair, with refresh on, a twin controller
// drops all its horizon memos before every Tick (runTwin's memoFree). The
// memoised controller must match it on Stats, completion cycles and the
// device command log. On the frfcfs-cap pairs the memoised controller must
// also have replayed CapTrips from its memo (ticks that start with a valid
// memo ahead of the clock skip the scan), or the check would not reach the
// replay.
func TestMemoFreeTwin(t *testing.T) {
	schedule, last := burstySchedule(260, 1800)
	end := last + 4_000
	for _, sched := range SchedulerNames() {
		for _, policy := range RowPolicyNames() {
			sched, policy := sched, policy
			t.Run(sched+"/"+policy, func(t *testing.T) {
				t.Parallel()
				cfg := compositionConfig(sched, policy, true)
				free := runTwin(t, cfg, schedule, end, false, true)
				if len(free.done) == 0 || free.st.Refreshes == 0 || free.replayed != 0 {
					t.Fatalf("weak reference run: %d completions, %d CapTrips replayed, stats %+v",
						len(free.done), free.replayed, free.st)
				}
				memo := runTwin(t, cfg, schedule, end, false, false)
				t.Logf("%d commands, %d completions, %d CapTrips, %d replayed from the memo",
					len(memo.log.cmds), len(memo.done), memo.st.CapTrips, memo.replayed)
				diffTwins(t, free, memo)
				if sched == DefaultScheduler && memo.replayed == 0 {
					t.Errorf("no CapTrips replayed from the memo (%d counted): the run does not reach the replay",
						memo.st.CapTrips)
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
