package mem

import (
	"fmt"

	"clrdram/internal/dram"
	"clrdram/internal/metrics"
	"clrdram/internal/stats"
)

// Request is one cache-line memory transaction submitted to the controller.
type Request struct {
	Addr  uint64 // physical byte address
	Write bool
	Core  int // issuing core, for per-core statistics

	// OnComplete, if non-nil, is called exactly once: for reads at the
	// device cycle the last data beat arrives, for writes at the cycle the
	// write command issues (writes are posted). The call hands the request
	// back: the controller never touches it afterwards, so the submitter
	// may reuse it from inside OnComplete.
	OnComplete func(cycle int64)

	decoded    Address
	enqueuedAt int64
	classified bool
}

// Config parameterises the controller. Zero values select the paper's
// Table 2 configuration where a default exists; in particular the empty
// role names resolve to the default composition (DefaultScheduler,
// DefaultRowPolicy, the mapper named by Scheme). NewController validates
// the resolved configuration and rejects bad values with typed errors
// (*ConfigError wrapping the sentinel categories in errors.go).
type Config struct {
	ReadQueueCap  int     // default 64
	WriteQueueCap int     // default 64
	RowHitCap     int     // FR-FCFS-Cap consecutive row-hit cap, default 4
	RowTimeoutNS  float64 // open-row idle timeout (timeout/hitcount policies), default 120 ns
	MaxRowHits    int     // hitcount policy's forced-close hit limit, default 16
	WriteHigh     int     // write drain start watermark, default 3/4 of cap
	WriteLow      int     // write drain stop watermark, default 1/4 of cap
	Scheme        Scheme

	// Registry names for the controller's swappable roles (registry.go).
	// Empty strings select the defaults; unknown names are rejected at
	// NewController time. Mapper defaults to the name of Scheme, so
	// Scheme-based configurations keep selecting their interleaving.
	Scheduler string
	RowPolicy string
	Mapper    string

	// MaxPostponedRefresh enables DDR4 refresh postponement: a due REF may
	// be deferred while requests are pending, up to this many intervals
	// behind schedule (JEDEC allows 8). 0 disables postponement (a due
	// refresh always preempts, the paper's conservative setting).
	MaxPostponedRefresh int

	// Refresh streams. Empty means refresh disabled (useful in unit tests).
	Refresh []RefreshStream

	// Metrics, when non-nil, enables per-cycle observability: read/write
	// queue-occupancy histograms and a stall-cycle breakdown by binding
	// DRAM constraint, registered under this registry (typically a
	// Sub-scoped view like "mem.ch0"). Nil keeps the hot path free of the
	// per-cycle sampling work (OBSERVABILITY.md documents the instrument
	// names and their DDR4 meaning).
	Metrics *metrics.Registry
}

// RefreshStream describes one periodic refresh obligation (paper §5.2): the
// rows of a given operating mode are collectively refreshed by REF commands
// issued every Interval device cycles, each occupying the device for that
// mode's tRFC.
type RefreshStream struct {
	Mode     dram.Mode
	Interval float64 // device cycles between REF commands of this stream
}

// StandardRefresh returns the refresh stream set for a device where a
// fraction hpFrac of all rows operate in high-performance mode with refresh
// window hpREFWms (ms), and the rest in mcMode (ModeDefault for a plain DDR4
// baseline, ModeMaxCap for CLR-DRAM) with the standard 64 ms window.
//
// DDR4 refreshes a rank with 8192 REF commands per window. When only a
// fraction f of rows belong to a stream, that stream needs f·8192 commands
// per window, so its inter-command interval stretches by 1/f.
func StandardRefresh(clockNS float64, mcMode dram.Mode, hpFrac, hpREFWms float64) []RefreshStream {
	const groups = 8192
	var streams []RefreshStream
	if hpFrac < 1 {
		interval := 64e6 / clockNS / (groups * (1 - hpFrac))
		streams = append(streams, RefreshStream{Mode: mcMode, Interval: interval})
	}
	if hpFrac > 0 {
		interval := hpREFWms * 1e6 / clockNS / (groups * hpFrac)
		streams = append(streams, RefreshStream{Mode: dram.ModeHighPerf, Interval: interval})
	}
	return streams
}

// Stats aggregates controller-level counters.
type Stats struct {
	RowBuffer     stats.RowBufferStats
	ReadsServed   uint64
	WritesServed  uint64
	Refreshes     uint64
	TimeoutCloses uint64          // PREs issued by the row policy (timeout/closed/hitcount closes)
	CapTrips      uint64          // ready row hits skipped by the FR-FCFS row-hit cap
	ReadLatency   stats.Histogram // enqueue→data, device cycles
}

// Controller owns a single-rank DRAM device and schedules requests onto it.
// Its composition — which Scheduler picks commands, which RowPolicy closes
// rows, which AddressMapper decodes raw addresses — is resolved from Config
// through the registries at construction (see registry.go and
// Composition()).
type Controller struct {
	dev *Device
	cfg Config

	sched  Scheduler
	policy RowPolicy

	readQ  []*Request
	writeQ []*Request

	draining bool

	hitStreak []int // consecutive row hits served per bank since its last ACT
	atCap     int   // banks whose streak has reached cfg.RowHitCap

	// openRowQueued[b] counts queued requests (both queues) that target bank
	// b's currently open row; meaningful only while the bank is open. It
	// makes the row-close exemption check O(1) on the hot paths (per-bank
	// close-entry re-derivations, TickClose scans) instead of a queue walk,
	// at the cost of O(1) bookkeeping per enqueue/issue and one recount per
	// ACT.
	openRowQueued []int

	// refresh bookkeeping
	refNext    []float64 // next due cycle per stream
	refPending int       // index of stream awaiting issue, -1 if none

	completions completionHeap

	mapper AddressMapper

	st Stats

	// Incrementally maintained fast-forward horizon components (horizon.go).
	// Event sites dirty exactly the components they can move: dirtyBank for
	// single-bank events (command issue, request arrival), dirtyAllHorizon
	// for rank-wide ones (PREA, REF, refresh retiming, reconfiguration).
	// ffGen counts dirtying events so the simulator can cache a joint
	// horizon across controllers (HorizonGen).
	ffGen        uint64
	ffSched      int64 // scheduleHorizon memo, recomputed when dirty or reached
	ffSchedValid bool
	// deqGen counts read-queue dequeues. The simulator's decoupled lag path
	// uses it as the wake hook for port-blocked lagged cores: the read queue
	// can only open when a read leaves it, so a lagged core's CanEnqueue
	// re-check is needed only on a generation change — one integer compare
	// per cycle instead of a queue-length probe per lagged core.
	deqGen     uint64
	ffCap      [2]int64 // DeadCycleTrips memo per queue: 0 = read, 1 = write
	ffCapValid [2]bool
	// Per-bank row-close entries (geometries ≤ 64 banks; see
	// rowCloseComponent). ffTODirty marks entries to re-derive, ffTOAgg
	// memoises their minimum, ffTOAll is the all-banks mask.
	ffBankTO  []int64
	ffTODirty uint64
	ffTOAll   uint64
	ffTOAgg   int64
	ffTOAggOK bool
	// Whole-scan fallback memo for geometries beyond 64 banks.
	ffTimeout      int64
	ffTimeoutValid bool

	// Observability (nil handles when Config.Metrics is nil; see obsTick).
	collect   bool
	obsReadQ  *metrics.Histogram
	obsWriteQ *metrics.Histogram
	obsIdle   *metrics.Counter
	obsCap    *metrics.Counter
	obsDrain  *metrics.Counter
	obsStalls [dram.NumConstraints]*metrics.Counter
}

// Device wraps the dram.Device so tests can substitute geometry; it is a
// thin alias kept for readability of Controller's fields.
type Device = dram.Device

// NewController builds a controller over dev: it fills Config defaults,
// validates the result (typed *ConfigError rejections instead of silent
// clamping), and resolves the scheduler, row policy and address mapper
// through the registries.
func NewController(dev *dram.Device, cfg Config) (*Controller, error) {
	if cfg.ReadQueueCap == 0 {
		cfg.ReadQueueCap = 64
	}
	if cfg.WriteQueueCap == 0 {
		cfg.WriteQueueCap = 64
	}
	if cfg.RowHitCap == 0 {
		cfg.RowHitCap = 4
	}
	if cfg.RowHitCap < 1 {
		return nil, &ConfigError{Field: "RowHitCap", Err: ErrRowHitCapInvalid,
			Detail: fmt.Sprintf("got %d", cfg.RowHitCap)}
	}
	if cfg.RowTimeoutNS == 0 {
		cfg.RowTimeoutNS = 120
	}
	if cfg.MaxRowHits == 0 {
		cfg.MaxRowHits = 16
	}
	if cfg.MaxRowHits < 1 {
		return nil, &ConfigError{Field: "MaxRowHits", Err: ErrRowHitCapInvalid,
			Detail: fmt.Sprintf("got %d", cfg.MaxRowHits)}
	}
	if cfg.WriteHigh == 0 {
		cfg.WriteHigh = cfg.WriteQueueCap * 3 / 4
	}
	if cfg.WriteLow == 0 {
		cfg.WriteLow = cfg.WriteQueueCap / 4
	}
	if cfg.WriteLow >= cfg.WriteHigh {
		return nil, &ConfigError{Field: "WriteLow", Err: ErrWatermarksInverted,
			Detail: fmt.Sprintf("low %d ≥ high %d", cfg.WriteLow, cfg.WriteHigh)}
	}
	sched, err := NewScheduler(cfg.Scheduler, cfg)
	if err != nil {
		return nil, err
	}
	policy, err := NewRowPolicy(cfg.RowPolicy, dev.Config(), cfg)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		dev:           dev,
		cfg:           cfg,
		sched:         sched,
		policy:        policy,
		hitStreak:     make([]int, dev.Config().Banks()),
		openRowQueued: make([]int, dev.Config().Banks()),
		refNext:       make([]float64, len(cfg.Refresh)),
		refPending:    -1,
		st:            Stats{ReadLatency: *stats.NewHistogram(512, 4)},
	}
	for i, s := range cfg.Refresh {
		if s.Interval <= 0 {
			return nil, fmt.Errorf("mem: refresh stream %d has non-positive interval", i)
		}
		c.refNext[i] = s.Interval
	}
	if banks := dev.Config().Banks(); banks <= 64 {
		c.ffBankTO = make([]int64, banks)
		c.ffTOAll = ^uint64(0) >> (64 - uint(banks))
		c.ffTODirty = c.ffTOAll
	}
	m, err := NewAddressMapper(cfg.Mapper, dev.Config(), cfg)
	if err != nil {
		return nil, err
	}
	c.mapper = m
	if cfg.Metrics != nil {
		c.collect = true
		reg := cfg.Metrics
		c.obsReadQ = reg.Histogram("queue.read.occupancy", cfg.ReadQueueCap+1, 1)
		c.obsWriteQ = reg.Histogram("queue.write.occupancy", cfg.WriteQueueCap+1, 1)
		c.obsIdle = reg.Counter("cycles.idle")
		c.obsCap = reg.Counter("stall.cap")
		c.obsDrain = reg.Counter("cycles.write_drain")
		// Skip ConstraintNone: a "not blocked" classification on a stalled
		// cycle means the scheduler withheld the command, counted as
		// stall.cap above (obsStalls[ConstraintNone] stays nil, a no-op).
		for k := dram.ConstraintState; k < dram.NumConstraints; k++ {
			c.obsStalls[k] = reg.Counter("stall." + k.String())
		}
	}
	return c, nil
}

// Mapper returns the controller's address mapper.
func (c *Controller) Mapper() AddressMapper { return c.mapper }

// Composition returns the canonical description of the controller's
// resolved composition — the byte-for-byte string the default-composition
// golden test pins.
func (c *Controller) Composition() string {
	return fmt.Sprintf("scheduler=%s rowpolicy=%s mapper=%s",
		c.sched.Name(), c.policy.Name(), c.mapper.Name())
}

// Device returns the controller's DRAM device. Callers must treat it as
// read-only; it exists so the observability layer can report device-level
// breakdowns (per-bank and per-mode command counts) alongside the
// controller's own counters.
func (c *Controller) Device() *dram.Device { return c.dev }

// SetRefresh replaces the refresh stream set at run time (dynamic CLR-DRAM
// reconfiguration changes the mode population and therefore the per-stream
// command rates, §5.2). Each new stream's first command is due one interval
// from now; an armed-but-unissued refresh is dropped (its rows are covered
// by the new schedule within one window).
func (c *Controller) SetRefresh(streams []RefreshStream) error {
	for i, s := range streams {
		if s.Interval <= 0 {
			return fmt.Errorf("mem: refresh stream %d has non-positive interval", i)
		}
	}
	now := float64(c.dev.Clock())
	c.cfg.Refresh = streams
	c.refNext = make([]float64, len(streams))
	for i, s := range streams {
		c.refNext[i] = now + s.Interval
	}
	c.refPending = -1
	c.dirtyAllHorizon()
	return nil
}

// Clock returns the current device cycle.
func (c *Controller) Clock() int64 { return c.dev.Clock() }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.st }

// Pending returns the number of queued (unissued) requests.
func (c *Controller) Pending() int { return len(c.readQ) + len(c.writeQ) }

// CanEnqueue reports whether a request of the given kind would be accepted.
func (c *Controller) CanEnqueue(write bool) bool {
	if write {
		return len(c.writeQ) < c.cfg.WriteQueueCap
	}
	return len(c.readQ) < c.cfg.ReadQueueCap
}

// Enqueue submits a request; it returns false if the target queue is full
// (the caller must retry later — this is the backpressure the core model
// sees as MSHR stalls).
func (c *Controller) Enqueue(req *Request) bool {
	if !c.CanEnqueue(req.Write) {
		return false
	}
	req.decoded = c.mapper.Decode(req.Addr)
	c.admit(req)
	return true
}

// noteEnqueued maintains the open-row request count for a newly queued
// request.
func (c *Controller) noteEnqueued(req *Request) {
	if open, row := c.dev.BankState(req.decoded.Bank); open && row == req.decoded.Row {
		c.openRowQueued[req.decoded.Bank]++
	}
}

// recountOpenRow rebuilds openRowQueued[bank] for the given row (called when
// an ACT opens it; the queues may already hold requests for it).
func (c *Controller) recountOpenRow(bank, row int) {
	n := 0
	for _, r := range c.readQ {
		if r.decoded.Bank == bank && r.decoded.Row == row {
			n++
		}
	}
	for _, r := range c.writeQ {
		if r.decoded.Bank == bank && r.decoded.Row == row {
			n++
		}
	}
	c.openRowQueued[bank] = n
}

// EnqueueDecoded is Enqueue for callers that already hold a decoded address
// (the system simulator decodes once through its page mapping layer).
func (c *Controller) EnqueueDecoded(req *Request, da Address) bool {
	if !c.CanEnqueue(req.Write) {
		return false
	}
	req.decoded = da
	c.admit(req)
	return true
}

// admit appends a decoded request to its queue and maintains the horizon
// bookkeeping.
func (c *Controller) admit(req *Request) {
	req.enqueuedAt = c.dev.Clock()
	if req.Write {
		c.writeQ = append(c.writeQ, req)
	} else {
		c.readQ = append(c.readQ, req)
	}
	c.noteEnqueued(req)
	c.dirtyBank(req.decoded.Bank)
}

// Tick advances the controller and device by one device cycle: it fires due
// completions, then issues at most one command chosen by priority —
// refresh, scheduled request commands, timeout row closes.
func (c *Controller) Tick() {
	now := c.dev.Clock()

	for c.completions.Len() > 0 && c.completions.Peek().cycle <= now {
		c.ffGen++ // the heap top moves: cached joint horizons must drop
		ev := c.completions.Pop()
		if ev.req.OnComplete != nil {
			ev.req.OnComplete(ev.cycle)
		}
	}

	issued := c.tickRefresh(now)
	if !issued && c.refPending == -1 {
		// A pending refresh blocks new request scheduling: otherwise the
		// scheduler keeps re-opening banks and REF starves forever.
		issued = c.tickSchedule(now)
	}
	if !issued {
		c.tickRowClose(now)
	}
	if c.collect {
		c.obsTick(issued)
	}

	c.dev.Tick()
}

// obsTick records the per-cycle observability samples: queue occupancies,
// and — on cycles where requests were pending but no command issued — which
// DRAM constraint was binding for the oldest serviceable request. Only
// called when Config.Metrics is set, so the disabled path pays one branch.
func (c *Controller) obsTick(issued bool) {
	c.obsReadQ.Observe(float64(len(c.readQ)))
	c.obsWriteQ.Observe(float64(len(c.writeQ)))
	if c.draining {
		c.obsDrain.Inc()
	}
	if issued {
		return
	}
	if c.Pending() == 0 {
		c.obsIdle.Inc()
		return
	}
	if c.refPending != -1 {
		// An armed refresh suppresses request scheduling until it drains
		// (PREA + REF); attribute the whole wait to the refresh path.
		c.obsStalls[dram.ConstraintRefresh].Inc()
		return
	}
	// Classify by the oldest request of the queue the scheduler considered
	// this cycle (c.draining was just settled by tickSchedule), falling
	// back to the other queue if that one is empty.
	q := c.readQ
	if c.draining || len(q) == 0 {
		if len(c.writeQ) > 0 {
			q = c.writeQ
		}
	}
	req := q[0]
	open, row := c.dev.BankState(req.decoded.Bank)
	var cmd dram.Command
	switch {
	case open && row == req.decoded.Row:
		kind := dram.KindRD
		if req.Write {
			kind = dram.KindWR
		}
		cmd = dram.Command{Kind: kind, Bank: req.decoded.Bank, Row: req.decoded.Row, Column: req.decoded.Column}
	case open:
		cmd = dram.Command{Kind: dram.KindPRE, Bank: req.decoded.Bank}
	default:
		cmd = dram.Command{Kind: dram.KindACT, Bank: req.decoded.Bank, Row: req.decoded.Row}
	}
	k := c.dev.BlockingConstraint(cmd)
	if k == dram.ConstraintNone {
		// The oldest request was serviceable but the scheduler withheld it:
		// that is the row-hit cap protecting an older conflicting request.
		c.obsCap.Inc()
		return
	}
	c.obsStalls[k].Inc()
}

// tickRefresh arms due refresh streams and drives an armed refresh to
// completion: precharge the rank (PREA), then issue REF. Returns true if
// it issued a command this cycle.
//
// With MaxPostponedRefresh > 0, a due refresh is deferred while the queues
// hold work, up to the postponement budget (DDR4's pulled-in/postponed
// refresh mechanism) — the device then catches up during idle phases.
func (c *Controller) tickRefresh(now int64) bool {
	if c.refPending == -1 {
		for i := range c.refNext {
			if float64(now) < c.refNext[i] {
				continue
			}
			if c.cfg.MaxPostponedRefresh > 0 && c.Pending() > 0 {
				behind := (float64(now) - c.refNext[i]) / c.cfg.Refresh[i].Interval
				if behind < float64(c.cfg.MaxPostponedRefresh) {
					continue // postpone: serve traffic first
				}
			}
			c.refPending = i
			c.ffGen++ // arming gates scheduling: the horizon shape changes
			break
		}
	}
	if c.refPending == -1 {
		return false
	}
	// Precharge the whole rank in one command if any bank is open.
	anyOpen := false
	banks := c.dev.NumBanks()
	for b := 0; b < banks; b++ {
		if open, _ := c.dev.BankState(b); open {
			anyOpen = true
			break
		}
	}
	if anyOpen {
		prea := dram.Command{Kind: dram.KindPREA}
		if c.dev.CanIssue(prea) {
			c.dev.Issue(prea)
			for b := 0; b < banks; b++ {
				c.resetStreak(b)
				c.openRowQueued[b] = 0
			}
			c.dirtyAllHorizon() // rank-wide: every bank closed
			return true
		}
		return false // wait for tRAS/tWR across open banks
	}
	ref := dram.Command{Kind: dram.KindREF, Mode: c.cfg.Refresh[c.refPending].Mode}
	if !c.dev.CanIssue(ref) {
		return false
	}
	c.dev.Issue(ref)
	c.st.Refreshes++
	c.refNext[c.refPending] += c.cfg.Refresh[c.refPending].Interval
	c.refPending = -1
	c.dirtyAllHorizon() // rank-wide: tRFC busy window + every ACT floor moves
	return true
}

// activeQueue selects read or write queue per the drain policy. A flip
// dirties the schedule memo: scheduleHorizon's scanned-queue choice and
// oscillation parity both hang off the draining flag.
func (c *Controller) activeQueue() *[]*Request {
	was := c.draining
	if c.draining {
		if len(c.writeQ) <= c.cfg.WriteLow {
			c.draining = false
		}
	} else {
		if len(c.writeQ) >= c.cfg.WriteHigh || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
			c.draining = true
		}
	}
	if c.draining != was {
		c.dirtySched()
	}
	if c.draining {
		return &c.writeQ
	}
	return &c.readQ
}

// tickSchedule runs the composed Scheduler over the active queue. Returns
// true if a command was issued.
//
// A scan that issues nothing has, as a byproduct, computed the earliest
// issue cycle of every candidate it rejected — exactly the schedule-horizon
// component the fast-forward planner needs. publishSched hands that minimum
// to the horizon memo, so the planner never has to walk the queues itself
// (horizon.go's schedComponent is a pure memo read).
func (c *Controller) tickSchedule(now int64) bool {
	q := c.activeQueue()
	if len(*q) == 0 {
		c.publishSched(ffNever)
		return false
	}
	if c.ffSchedValid && c.ffSched > now {
		// Memoised failed scan: every candidate's floor lies in the future
		// (events that could move one dirty the memo), so this cycle's scan
		// would reject them all again. Replay its only side effect — the
		// scheduler's per-cycle dead-scan stat (FR-FCFS-Cap counts a CapTrip
		// per ready-but-withheld row hit per cycle) — from the memo and skip
		// the queue walk. This is what makes dead device ticks O(1) on
		// memory-bound phases in every mode; the fast-forward planner then
		// skips even that via SkipTicks.
		if trips := c.deadTripsMemo(c.draining); trips > 0 {
			c.st.CapTrips += uint64(trips)
		}
		return false
	}
	issued, minNext := c.sched.Schedule(c, q, now)
	if issued {
		return true
	}
	c.publishSched(minNext)
	return false
}

// publishSched installs a failed scan's candidate minimum as the schedule
// horizon memo. Only the settled (fixpoint) drain regime publishes: there the
// next cycles scan the same queue, so the per-candidate floors ARE the first
// cycle the scheduler can act. In the period-2 oscillating regime (read queue
// empty, write queue in (0, WriteLow]) candidates issue only on alternating
// cycles; the memo stays invalid and the planner treats the schedule as
// imminent, which is safe (horizons may only be underestimates).
func (c *Controller) publishSched(h int64) {
	if c.nextDraining(c.draining) != c.draining {
		return
	}
	c.ffSched = h
	c.ffSchedValid = true
}

// issueColumn issues the RD/WR q[i] needs (the caller has checked its floor
// is due), removes the request from q, and settles its completion: a read's
// is scheduled for when its data arrives, a write's runs now (writes are
// posted). Calling OnComplete hands the request back to its submitter, so
// it is the last thing the controller does with it.
func (c *Controller) issueColumn(q *[]*Request, i int, now int64) {
	req := (*q)[i]
	bank := req.decoded.Bank
	kind := dram.KindRD
	if req.Write {
		kind = dram.KindWR
	}
	c.classify(req, &c.st.RowBuffer.Hits)
	c.dev.Issue(dram.Command{Kind: kind, Bank: bank, Row: req.decoded.Row, Column: req.decoded.Column})
	c.hitStreak[bank]++
	if c.hitStreak[bank] == c.cfg.RowHitCap {
		c.atCap++
	}
	if c.openRowQueued[bank] > 0 {
		c.openRowQueued[bank]--
	}
	c.dirtyBank(bank)
	c.removeAt(q, i)
	if req.Write {
		c.st.WritesServed++
		if req.OnComplete != nil {
			req.OnComplete(now)
		}
	} else {
		c.st.ReadsServed++
		done := now + int64(c.dev.ReadLatency(bank))
		c.st.ReadLatency.Add(float64(done - req.enqueuedAt))
		c.completions.Push(completion{cycle: done, req: req})
	}
}

// classify counts the request's row-buffer outcome the first time one of its
// commands issues.
func (c *Controller) classify(req *Request, counter *uint64) {
	if !req.classified {
		*counter++
		req.classified = true
	}
}

// olderConflictExists reports whether any request older than index i in q
// targets the same bank but a different row — the starvation condition the
// row-hit cap protects against.
func (c *Controller) olderConflictExists(q []*Request, i int) bool {
	target := q[i].decoded
	for _, other := range q[:i] {
		if other.decoded.Bank == target.Bank && other.decoded.Row != target.Row {
			return true
		}
	}
	return false
}

// tickRowClose runs the composed RowPolicy (the paper's default is the
// 120 ns timeout policy, Table 2 note 6).
//
// The policy's per-bank scan is gated by the row-close horizon component:
// entry b of the memo table is exactly the first cycle the policy could
// close bank b's row (RowPolicy.BankCloseCycle), so while the aggregate
// minimum lies in the future no close is possible and the tick costs two
// compares instead of an O(banks) device walk. The gate is exact, not
// merely safe — rowCloseComponent re-derives dirty or reached entries
// before answering. Policies that never close (open-page) answer ffNever
// and pay nothing here.
func (c *Controller) tickRowClose(now int64) {
	if c.rowCloseComponent(now) > now {
		return
	}
	c.policy.TickClose(c, now)
}

// rowHasQueuedRequest reports whether any queued request targets (bank,row).
// Hot paths read openRowQueued instead; this queue walk is the test oracle
// for that counter (and the reference semantics of the timeout exemption).
func (c *Controller) rowHasQueuedRequest(bank, row int) bool {
	for _, r := range c.readQ {
		if r.decoded.Bank == bank && r.decoded.Row == row {
			return true
		}
	}
	for _, r := range c.writeQ {
		if r.decoded.Bank == bank && r.decoded.Row == row {
			return true
		}
	}
	return false
}

func (c *Controller) resetStreak(bank int) {
	if c.hitStreak[bank] >= c.cfg.RowHitCap {
		c.atCap--
	}
	c.hitStreak[bank] = 0
}

// removeAt removes index i from q preserving order (FCFS age order).
func (c *Controller) removeAt(q *[]*Request, i int) {
	if q == &c.readQ {
		c.deqGen++
	}
	*q = append((*q)[:i], (*q)[i+1:]...)
}

// DequeueGen returns the read-queue dequeue generation: it changes exactly
// when a read leaves the queue, i.e. the only event that can turn a full
// read port into an accepting one. A caller watching a full port can cache
// the generation and skip CanEnqueue until it moves (see struct comment).
func (c *Controller) DequeueGen() uint64 { return c.deqGen }

// Drained reports whether all queues and in-flight completions are empty.
func (c *Controller) Drained() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && c.completions.Len() == 0
}

// completion is a scheduled read-data callback.
type completion struct {
	cycle int64
	req   *Request
}

// completionHeap is a min-heap on cycle. It is small (≤ queue capacity), so
// a hand-rolled heap avoids interface boxing on the hot path.
type completionHeap struct{ h []completion }

func (c *completionHeap) Len() int         { return len(c.h) }
func (c *completionHeap) Peek() completion { return c.h[0] }

func (c *completionHeap) Push(ev completion) {
	c.h = append(c.h, ev)
	i := len(c.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.h[parent].cycle <= c.h[i].cycle {
			break
		}
		c.h[parent], c.h[i] = c.h[i], c.h[parent]
		i = parent
	}
}

func (c *completionHeap) Pop() completion {
	top := c.h[0]
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h = c.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(c.h) && c.h[l].cycle < c.h[smallest].cycle {
			smallest = l
		}
		if r < len(c.h) && c.h[r].cycle < c.h[smallest].cycle {
			smallest = r
		}
		if smallest == i {
			break
		}
		c.h[i], c.h[smallest] = c.h[smallest], c.h[i]
		i = smallest
	}
	return top
}
