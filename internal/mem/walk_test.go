package mem

import (
	"cmp"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"clrdram/internal/dram"
	"clrdram/internal/stats"
)

// The FR-FCFS(-Cap) walk tests. frfcfsWalk chooses its command in one age-
// order walk; twoPass below is the two-pass scan it replaced, kept as the
// reference. Twin controllers — one per scheduler — run the same traffic in
// lockstep and must agree on every command, every counter and the published
// horizon on every cycle.

// twoPass is the reference FR-FCFS(-Cap) scheduler. It walks the queue in
// age order, the bank lists merged by sequence number (ageOrder). Pass 1
// serves the oldest issuable row hit that is not capped, counting one
// CapTrips per capped hit it skips; pass 2 issues the oldest issuable next
// command of any request, skipping capped hits, and otherwise returns the
// minimum floor it saw. Floors come from dram.Device.EarliestIssue, and the
// cap test reads the hit streaks and rescans the older requests itself.
type twoPass struct{ capped bool }

func (p twoPass) prod() Scheduler {
	if p.capped {
		return frfcfsCap{}
	}
	return frfcfs{}
}

func (p twoPass) Name() string { return "two-pass " + p.prod().Name() }

func (p twoPass) Schedule(c *Controller, q *queue, now int64) (bool, int64) {
	reqs := ageOrder(q)
	isHit := func(req *Request) bool {
		open, row := c.dev.BankState(req.decoded.Bank)
		return open && row == req.decoded.Row
	}
	isCapped := func(i int, req *Request) bool {
		return p.capped && c.hitStreak[req.decoded.Bank] >= c.cfg.RowHitCap && olderConflictExists(reqs, i)
	}
	issue := func(req *Request) {
		b := req.decoded.Bank
		c.issueNext(q, b, slices.Index(q.banks[b].reqs, req), now)
	}
	for i, req := range reqs {
		if !isHit(req) {
			continue
		}
		if isCapped(i, req) {
			c.st.CapTrips++
			continue
		}
		if refFloor(c, req) <= now {
			issue(req)
			return true, now
		}
	}
	minNext := int64(ffNever)
	for i, req := range reqs {
		if isHit(req) && isCapped(i, req) {
			continue
		}
		if e := refFloor(c, req); e > now {
			minNext = min(minNext, e)
			continue
		}
		issue(req)
		return true, now
	}
	return false, minNext
}

// ageOrder returns q's requests in age order: its bank lists merged by
// sequence number.
func ageOrder(q *queue) []*Request {
	var reqs []*Request
	for _, bq := range q.banks {
		reqs = append(reqs, bq.reqs...)
	}
	slices.SortFunc(reqs, func(a, b *Request) int { return cmp.Compare(a.seq, b.seq) })
	return reqs
}

// olderConflictExists reports whether any request older than index i of the
// age-ordered reqs targets the same bank but a different row — the
// starvation condition the row-hit cap protects against.
func olderConflictExists(reqs []*Request, i int) bool {
	target := reqs[i].decoded
	for _, other := range reqs[:i] {
		if other.decoded.Bank == target.Bank && other.decoded.Row != target.Row {
			return true
		}
	}
	return false
}

// refFloor is the floor of the command req needs next, through the device's
// generic EarliestIssue.
func refFloor(c *Controller, req *Request) int64 {
	d := req.decoded
	cmd := dram.Command{Kind: dram.KindACT, Bank: d.Bank, Row: d.Row, Column: d.Column}
	if open, row := c.dev.BankState(d.Bank); open && row == d.Row {
		cmd.Kind = dram.KindRD
		if req.Write {
			cmd.Kind = dram.KindWR
		}
	} else if open {
		cmd.Kind = dram.KindPRE
	}
	return c.dev.EarliestIssue(cmd)
}

// commandLog records a device's command stream (dram.Config.Listener).
type commandLog struct{ cmds []loggedCommand }

type loggedCommand struct {
	cmd   dram.Command
	cycle int64
}

func (l *commandLog) OnCommand(cmd dram.Command, cycle int64) {
	l.cmds = append(l.cmds, loggedCommand{cmd, cycle})
}

// walkCase is one lockstep configuration. faw adds cycles to the
// high-performance rows' tFAW, so that tFAW differs by row mode and a closed
// bank's ACT floor can depend on the row.
type walkCase struct {
	sched, policy string
	seed          uint64
	readCap       int
	writeCap      int
	faw           int
	cycles        int
}

// walkTwin is one side of the lockstep pair.
type walkTwin struct {
	c       *Controller
	log     *commandLog
	done    []loggedCompletion
	arrived []*Request // requests enqueued since the caller last cleared it
}

type loggedCompletion struct {
	id    int
	cycle int64
}

func newWalkTwin(t testing.TB, wc walkCase, reference bool) *walkTwin {
	t.Helper()
	cfg := smallCfg()
	cfg.Timings[dram.ModeMaxCap] = dram.MaxCapNS().ToCycles(cfg.ClockNS)
	cfg.Timings[dram.ModeHighPerf] = dram.HighPerfNS(true).ToCycles(cfg.ClockNS)
	cfg.Timings[dram.ModeHighPerf].FAW += wc.faw
	// Traffic rows stay below 512: rows 0-255 run high-performance, the
	// rest max-capacity.
	cfg.ModeOf = clrModeByRow{rows: 1024}
	tw := &walkTwin{log: &commandLog{}}
	cfg.Listener = tw.log
	c, err := NewController(dram.NewDevice(cfg), Config{
		Scheduler:     wc.sched,
		RowPolicy:     wc.policy,
		ReadQueueCap:  wc.readCap,
		WriteQueueCap: wc.writeCap,
		Refresh: []RefreshStream{
			{Mode: dram.ModeMaxCap, Interval: 900},
			{Mode: dram.ModeHighPerf, Interval: 1700},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		c.sched = twoPass{capped: wc.sched == "frfcfs-cap"}
	}
	tw.c = c
	return tw
}

// counters is the per-cycle comparable part of Stats.
type counters struct {
	rb                                                stats.RowBufferStats
	reads, writes, refreshes, timeoutCloses, capTrips uint64
}

func countersOf(st Stats) counters {
	return counters{st.RowBuffer, st.ReadsServed, st.WritesServed, st.Refreshes, st.TimeoutCloses, st.CapTrips}
}

// walkArrivals enqueues one cycle's arrivals of the lockstep traffic
// (horizonTrafficStep: a hot-row pool that trips the cap, uniform noise, one
// write in five) into every twin and appends them to each twin's arrived.
// Bursts of 1-16 requests come one cycle in 32 on average: the queues fill,
// drain and sit empty in turn.
func walkArrivals(t testing.TB, state *uint64, id *int, twins ...*walkTwin) {
	t.Helper()
	*state = *state*6364136223846793005 + 1442695040888963407
	if *state>>59 != 0 {
		return
	}
	for k := 0; k < 1+int(*state>>40)%16; k++ {
		r := horizonTrafficStep(state)
		if !twins[0].c.CanEnqueue(r.Write) {
			return
		}
		for _, tw := range twins {
			req, n := *r, *id
			req.OnComplete = func(at int64) { tw.done = append(tw.done, loggedCompletion{n, at}) }
			if !enqueue(tw.c, &req) {
				t.Fatalf("cycle %d: twins disagree on admission", tw.c.Clock())
			}
			tw.arrived = append(tw.arrived, &req)
		}
		*id++
	}
}

// runWalkLockstep drives the production walk and the two-pass reference
// over identical traffic (walkArrivals) and fails at the first cycle where
// their command streams, counters, horizon settlement or NextEventCycle
// differ. It returns the production twin's final stats and the number of
// cycles that began with a closed bank holding requests whose ACT floor
// depends on the row (dram.Device.ACTBankFloor).
func runWalkLockstep(t testing.TB, wc walkCase) (Stats, int) {
	t.Helper()
	prod, ref := newWalkTwin(t, wc, false), newWalkTwin(t, wc, true)
	state := wc.seed
	id, rowDependent := 0, 0
	for cycle := 0; cycle < wc.cycles; cycle++ {
		walkArrivals(t, &state, &id, prod, ref)
		for m := (prod.c.read.nonEmpty | prod.c.write.nonEmpty) &^ prod.c.dev.OpenBankMask(); m != 0; m &= m - 1 {
			if _, ok := prod.c.dev.ACTBankFloor(bits.TrailingZeros64(m)); !ok {
				rowDependent++
				break
			}
		}
		prod.c.Tick()
		ref.c.Tick()
		now := prod.c.Clock()
		if len(prod.log.cmds) != len(ref.log.cmds) ||
			(len(prod.log.cmds) > 0 && prod.log.cmds[len(prod.log.cmds)-1] != ref.log.cmds[len(ref.log.cmds)-1]) {
			t.Fatalf("cycle %d: command streams diverge: walk %d commands (last %+v), two-pass %d (last %+v)",
				now, len(prod.log.cmds), lastCommand(prod.log), len(ref.log.cmds), lastCommand(ref.log))
		}
		if a, b := countersOf(prod.c.Stats()), countersOf(ref.c.Stats()); a != b {
			t.Fatalf("cycle %d: counters diverge:\n walk:     %+v\n two-pass: %+v", now, a, b)
		}
		if a, b := prod.c.HorizonSettled(), ref.c.HorizonSettled(); a != b {
			t.Fatalf("cycle %d: HorizonSettled walk %v, two-pass %v", now, a, b)
		}
		if a, b := prod.c.NextEventCycle(), ref.c.NextEventCycle(); a != b {
			t.Fatalf("cycle %d: NextEventCycle walk %d, two-pass %d", now, a, b)
		}
	}
	if !reflect.DeepEqual(prod.done, ref.done) {
		t.Fatalf("completion logs diverge (%d vs %d entries)", len(prod.done), len(ref.done))
	}
	if a, b := prod.c.Stats(), ref.c.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final stats diverge:\n walk:     %+v\n two-pass: %+v", a, b)
	}
	return prod.c.Stats(), rowDependent
}

func lastCommand(l *commandLog) loggedCommand {
	if len(l.cmds) == 0 {
		return loggedCommand{}
	}
	return l.cmds[len(l.cmds)-1]
}

// walkSeeds are the lockstep cases of TestScheduleWalkMatchesTwoPass and
// TestQueueIndexInvariant and the seed corpus of the fuzz target: default
// queues, shallow queues that fill and drain often, a one-entry read queue,
// and default queues on a device whose tFAW differs by row mode.
var walkSeeds = []struct {
	seed              uint64
	readCap, writeCap int
	faw               int
}{
	{0x51a7b2c90ddc0ffe, 64, 64, 0},
	{0x9e3779b97f4a7c15, 8, 12, 0},
	{7, 1, 4, 0},
	{0x51a7b2c90ddc0ffe, 64, 64, 12},
}

// walkSeedCase is the lockstep case of walkSeeds entry i for sched, and its
// subtest name.
func walkSeedCase(sched string, i int) (walkCase, string) {
	ws := walkSeeds[i]
	name := fmt.Sprintf("%s/q%d-%d", sched, ws.readCap, ws.writeCap)
	if ws.faw != 0 {
		name += fmt.Sprintf("-faw%d", ws.faw)
	}
	return walkCase{sched: sched, seed: ws.seed, readCap: ws.readCap, writeCap: ws.writeCap, faw: ws.faw, cycles: 30_000}, name
}

// TestScheduleWalkMatchesTwoPass runs the production walk against the
// two-pass reference in lockstep, for both schedulers that share the walk,
// and checks the traffic exercised what the walk decides between: capped
// hits, write drains, refreshes, conflicts and, with tFAW differing by row
// mode, closed banks whose ACT floor depends on the row.
func TestScheduleWalkMatchesTwoPass(t *testing.T) {
	for _, sched := range []string{"frfcfs-cap", "frfcfs"} {
		for i := range walkSeeds {
			wc, name := walkSeedCase(sched, i)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				st, rowDependent := runWalkLockstep(t, wc)
				if st.WritesServed == 0 || st.Refreshes == 0 || st.RowBuffer.Conflicts == 0 {
					t.Fatalf("weak traffic: %+v", st)
				}
				if sched == "frfcfs-cap" && wc.readCap == 64 && st.CapTrips == 0 {
					t.Fatal("weak traffic: the row-hit cap never tripped")
				}
				if wc.faw != 0 && rowDependent == 0 {
					t.Fatal("weak traffic: no ACT floor depended on the row")
				}
			})
		}
	}
}

// FuzzScheduleWalkMatchesTwoPass fuzzes the lockstep check over the traffic
// seed, the queue capacities, the row policy and the high-performance tFAW
// stretch, for both schedulers.
func FuzzScheduleWalkMatchesTwoPass(f *testing.F) {
	for _, ws := range walkSeeds {
		f.Add(ws.seed, uint8(ws.readCap-1), uint8(ws.writeCap-2), uint8(0), uint8(ws.faw))
	}
	f.Fuzz(func(t *testing.T, seed uint64, readCap, writeCap, policy, faw uint8) {
		for _, sched := range []string{"frfcfs-cap", "frfcfs"} {
			runWalkLockstep(t, walkCase{
				sched:    sched,
				policy:   RowPolicyNames()[int(policy)%len(RowPolicyNames())],
				seed:     seed,
				readCap:  1 + int(readCap)%64,
				writeCap: 2 + int(writeCap)%63,
				faw:      int(faw) % 24,
				cycles:   6_000,
			})
		}
	})
}

// TestPREDoesNotWaitForTimingBlockedHit pins the walk's PRE behaviour: when
// no row hit can issue, the oldest issuable command wins, even a PRE that
// closes the row a younger, uncapped hit is waiting on because of a column
// timing floor (here the write-to-read turnaround of its bank group).
func TestPREDoesNotWaitForTimingBlockedHit(t *testing.T) {
	for _, sched := range []string{"frfcfs-cap", "frfcfs"} {
		t.Run(sched, func(t *testing.T) {
			cfg := smallCfg()
			log := &commandLog{}
			cfg.Listener = log
			dev := dram.NewDevice(cfg)
			c, err := NewController(dev, Config{Scheduler: sched})
			if err != nil {
				t.Fatal(err)
			}
			issueWhenLegal := func(cmd dram.Command) {
				if e := dev.EarliestIssue(cmd); e > dev.Clock() {
					dev.AdvanceClock(e - dev.Clock())
				}
				dev.Issue(cmd)
			}
			// Bank 0 holds row 5 open; a write to bank 1 (same bank group)
			// one cycle before bank 0 may precharge starts the group's
			// write-to-read turnaround.
			issueWhenLegal(dram.Command{Kind: dram.KindACT, Bank: 0, Row: 5})
			issueWhenLegal(dram.Command{Kind: dram.KindACT, Bank: 1, Row: 9})
			dev.AdvanceClock(dev.PREFloor(0) - 1 - dev.Clock())
			issueWhenLegal(dram.Command{Kind: dram.KindWR, Bank: 1, Row: 9})
			dev.Tick()
			now := dev.Clock()
			if dev.PREFloor(0) != now {
				t.Fatalf("setup: bank 0 cannot precharge at cycle %d", now)
			}
			if dev.ColumnFloor(0, 5, false) <= now {
				t.Fatalf("setup: the row hit is not timing-blocked at cycle %d", now)
			}
			c.EnqueueDecoded(&Request{Addr: 1}, Address{Bank: 0, Row: 7}) // older: conflicts with row 5
			c.EnqueueDecoded(&Request{Addr: 2}, Address{Bank: 0, Row: 5}) // younger: hits row 5
			before := len(log.cmds)
			c.Tick()
			if len(log.cmds) != before+1 {
				t.Fatalf("issued %d commands, want 1", len(log.cmds)-before)
			}
			if got := log.cmds[before]; got.cmd.Kind != dram.KindPRE || got.cmd.Bank != 0 || got.cycle != now {
				t.Fatalf("issued %+v, want a PRE to bank 0 at cycle %d", got, now)
			}
			if c.Pending() != 2 {
				t.Fatalf("%d requests pending, want both (the PRE serves neither)", c.Pending())
			}
		})
	}
}
