// Package mem implements the memory controller of the evaluated system
// (paper Table 2): FR-FCFS-Cap scheduling, a 120 ns timeout-based open-row
// policy, 64-entry read/write queues with write draining, and a
// heterogeneous refresh engine that issues distinct refresh streams for
// max-capacity and high-performance rows (paper §5.2). The controller
// takes requests already decoded to DRAM coordinates (EnqueueDecoded): the
// system simulator places pages with its profiling-guided mapping
// (internal/core.PageMapper).
package mem

import (
	"fmt"

	"clrdram/internal/dram"
	"clrdram/internal/metrics"
	"clrdram/internal/stats"
)

// Address is a fully decoded DRAM coordinate. Bank is the flat bank index.
type Address struct {
	Bank   int
	Row    int
	Column int
}

// Request is one cache-line memory transaction submitted to the controller.
type Request struct {
	Addr  uint64 // physical byte address, for the submitter (scheduling reads the decoded one)
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
	seq        uint64 // enqueue order, controller-wide: the request's age
	classified bool
}

// Config parameterises the controller. Zero values select the paper's
// Table 2 configuration where a default exists; in particular the empty
// role names resolve to the default composition (DefaultScheduler,
// DefaultRowPolicy). NewController validates the resolved configuration
// and rejects bad values with typed errors (*ConfigError wrapping the
// sentinel categories in errors.go).
type Config struct {
	ReadQueueCap  int     // default 64
	WriteQueueCap int     // default 64
	RowHitCap     int     // FR-FCFS-Cap consecutive row-hit cap, default 4
	RowTimeoutNS  float64 // open-row idle timeout (timeout/hitcount policies), default 120 ns
	MaxRowHits    int     // hitcount policy's forced-close hit limit, default 16
	WriteHigh     int     // write drain start watermark, default 3/4 of cap
	WriteLow      int     // write drain stop watermark, default 1/4 of cap

	// Names of the controller's swappable roles (registry.go).
	// Empty strings select the defaults; unknown names are rejected at
	// NewController time.
	Scheduler string
	RowPolicy string

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
// Its composition — which Scheduler picks commands and which RowPolicy
// closes rows — is resolved from Config by name at construction (see
// registry.go). Requests arrive decoded to DRAM
// coordinates (EnqueueDecoded).
type Controller struct {
	dev *Device
	cfg Config

	sched  Scheduler
	policy RowPolicy

	read, write queue  // the request queues, indexed by bank (queue.go)
	seq         uint64 // enqueue sequence number of the youngest request

	draining bool

	hitStreak []int  // consecutive row hits served per bank since its last ACT
	atCap     uint64 // banks whose streak has reached cfg.RowHitCap

	// refresh bookkeeping
	refNext    []float64 // next due cycle per stream
	refPending int       // index of stream awaiting issue, -1 if none

	completions completionHeap

	st Stats

	// Incrementally maintained fast-forward horizon components (horizon.go).
	// Event sites dirty exactly the components they can move: dirtyBank for
	// single-bank events (command issue, request arrival), dirtyAllHorizon
	// for rank-wide ones (PREA, REF, refresh retiming, reconfiguration).
	// ffGen counts dirtying events so the simulator can cache a joint
	// horizon across controllers (HorizonGen).
	ffGen        uint64
	ffSched      int64  // schedule-component memo: a failed scan's candidate minimum (publishSched)
	ffTrips      uint64 // the CapTrips that failed scan counted, replayed per dead cycle
	ffSchedValid bool
	// Per-bank row-close entries (see rowCloseComponent; a rank has at
	// most dram.MaxBanks banks). ffTODirty marks entries to re-derive,
	// ffTOAgg memoises their minimum, ffTOAll is the all-banks mask.
	ffBankTO  []int64
	ffTODirty uint64
	ffTOAll   uint64
	ffTOAgg   int64
	ffTOAggOK bool

	// Observability (nil handles when Config.Metrics is nil; see observe).
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
// clamping), and resolves the scheduler and row policy through the
// registries.
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
	banks := dev.NumBanks()
	c := &Controller{
		dev:        dev,
		cfg:        cfg,
		sched:      sched,
		policy:     policy,
		read:       newQueue(banks),
		write:      newQueue(banks),
		hitStreak:  make([]int, banks),
		refNext:    make([]float64, len(cfg.Refresh)),
		refPending: -1,
		st:         Stats{ReadLatency: *stats.NewHistogram(512, 4)},
	}
	for i, s := range cfg.Refresh {
		if s.Interval <= 0 {
			return nil, fmt.Errorf("mem: refresh stream %d has non-positive interval", i)
		}
		c.refNext[i] = s.Interval
	}
	c.ffBankTO = make([]int64, banks)
	c.ffTOAll = ^uint64(0) >> (64 - uint(banks))
	c.ffTODirty = c.ffTOAll
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
func (c *Controller) Pending() int { return c.read.n + c.write.n }

// CanEnqueue reports whether a request of the given kind would be accepted.
func (c *Controller) CanEnqueue(write bool) bool {
	if write {
		return c.write.n < c.cfg.WriteQueueCap
	}
	return c.read.n < c.cfg.ReadQueueCap
}

// rowChanged restarts bank b's hit streak and rebuilds its summaries in both
// queues after a command opened or closed its row (ACT, PRE, PREA).
func (c *Controller) rowChanged(b int) {
	c.hitStreak[b] = 0
	c.atCap &^= 1 << uint(b)
	open, row := c.dev.BankState(b)
	c.read.summarise(b, open, row)
	c.write.summarise(b, open, row)
}

// openRowQueued reports whether a queued request (either queue) targets bank
// b's open row: the row-close exemption, read from the hit masks.
func (c *Controller) openRowQueued(b int) bool {
	return (c.read.hits|c.write.hits)&(1<<uint(b)) != 0
}

// EnqueueDecoded submits a request whose address the caller has already
// decoded to DRAM coordinates (the system simulator decodes once through
// its page mapping layer). It returns false if the target queue is full
// (the caller must retry later — this is the backpressure the core model
// sees as MSHR stalls).
func (c *Controller) EnqueueDecoded(req *Request, da Address) bool {
	if !c.CanEnqueue(req.Write) {
		return false
	}
	req.decoded = da
	req.enqueuedAt = c.dev.Clock()
	c.seq++
	req.seq = c.seq
	q := &c.read
	if req.Write {
		q = &c.write
	}
	open, row := c.dev.BankState(da.Bank)
	q.push(req, open, row)
	c.dirtyBank(da.Bank)
	return true
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
		c.observe(1, issued)
	}

	c.dev.Tick()
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
		pending := c.Pending() > 0
		for i := range c.refNext {
			if c.refArmed(i, now, pending) {
				c.refPending = i
				c.ffGen++ // arming gates scheduling: the horizon shape changes
				break
			}
		}
	}
	if c.refPending == -1 {
		return false
	}
	// Precharge the whole rank in one command if any bank is open.
	if c.dev.OpenBankMask() != 0 {
		prea := dram.Command{Kind: dram.KindPREA}
		if c.dev.CanIssue(prea) {
			c.dev.Issue(prea)
			for b := range c.dev.NumBanks() {
				c.rowChanged(b)
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

// refArmed reports whether tickRefresh arms stream i at cycle t: the stream
// is due (float64(t) ≥ refNext[i]) and, with postponement enabled and work
// pending, MaxPostponedRefresh intervals behind. refArmCycle searches the
// same predicate for the horizon.
func (c *Controller) refArmed(i int, t int64, pending bool) bool {
	ft := float64(t)
	if ft < c.refNext[i] {
		return false
	}
	if c.cfg.MaxPostponedRefresh > 0 && pending {
		behind := (ft - c.refNext[i]) / c.cfg.Refresh[i].Interval
		if behind < float64(c.cfg.MaxPostponedRefresh) {
			return false // postpone: serve traffic first
		}
	}
	return true
}

// nextDraining applies one step of the write-drain hysteresis to d under the
// current queue lengths: a drain starts at WriteHigh (or when only writes
// are queued) and stops at WriteLow.
func (c *Controller) nextDraining(d bool) bool {
	if d {
		return c.write.n > c.cfg.WriteLow
	}
	return c.write.n >= c.cfg.WriteHigh || (c.read.n == 0 && c.write.n > 0)
}

// activeQueue steps the drain hysteresis and selects the read or write
// queue. A flip dirties the schedule memo: the published floors belong to
// the queue the failed scan walked.
func (c *Controller) activeQueue() *queue {
	if d := c.nextDraining(c.draining); d != c.draining {
		c.draining = d
		c.dirtySched()
	}
	if c.draining {
		return &c.write
	}
	return &c.read
}

// tickSchedule runs the composed Scheduler over the active queue. Returns
// true if a command was issued.
//
// A scan that issues nothing has, as a byproduct, computed the earliest
// issue cycle of every candidate it rejected — exactly the schedule-horizon
// component the fast-forward planner needs — and counted the CapTrips of
// every capped hit it passed. publishSched hands both to the horizon memo,
// so the planner never has to walk the queues itself (horizon.go's
// schedComponent is a pure memo read).
func (c *Controller) tickSchedule(now int64) bool {
	q := c.activeQueue()
	if q.n == 0 {
		c.publishSched(ffNever, 0)
		return false
	}
	if c.ffSchedValid && c.ffSched > now {
		// Memoised failed scan: every candidate's floor lies in the future
		// (events that could move one dirty the memo), so this cycle's scan
		// would reject them all again and pass the same capped hits. Replay
		// its only side effect, the CapTrips it counted, and skip the queue
		// walk. This is what makes dead device ticks O(1) on memory-bound
		// phases in every mode; the fast-forward planner then skips even
		// that via SkipTicks.
		c.st.CapTrips += c.ffTrips
		return false
	}
	trips := c.st.CapTrips
	issued, minNext := c.sched.Schedule(c, q, now)
	if issued {
		return true
	}
	c.publishSched(minNext, c.st.CapTrips-trips)
	return false
}

// publishSched installs a failed scan's candidate minimum h and the CapTrips
// it counted as the schedule horizon memo. Only the settled (fixpoint) drain
// regime publishes: there the next cycles scan the same queue, so the
// per-candidate floors ARE the first cycle the scheduler can act. In the
// period-2 oscillating regime (read queue empty, write queue in
// (0, WriteLow]) candidates issue only on alternating cycles; the memo stays
// invalid and the planner treats the schedule as imminent, which is safe
// (horizons may only be underestimates). SkipTicks relies on this: a valid
// memo means the draining flag is at its fixpoint.
func (c *Controller) publishSched(h int64, trips uint64) {
	if c.nextDraining(c.draining) != c.draining {
		return
	}
	c.ffSched = h
	c.ffTrips = trips
	c.ffSchedValid = true
}

// issueColumn issues the RD/WR that request i of bank's list in q needs (the
// caller has checked its floor is due), removes the request from q, and
// settles its completion: a read's is scheduled for when its data arrives, a
// write's runs now (writes are posted). Calling OnComplete hands the request
// back to its submitter, so it is the last thing the controller does with it.
func (c *Controller) issueColumn(q *queue, bank, i int, now int64) {
	req := q.banks[bank].reqs[i]
	kind := dram.KindRD
	if req.Write {
		kind = dram.KindWR
	}
	c.classify(req, &c.st.RowBuffer.Hits)
	c.dev.Issue(dram.Command{Kind: kind, Bank: bank, Row: req.decoded.Row, Column: req.decoded.Column})
	c.hitStreak[bank]++
	if c.hitStreak[bank] == c.cfg.RowHitCap {
		c.atCap |= 1 << uint(bank)
	}
	c.dirtyBank(bank)
	q.remove(bank, i, req.decoded.Row)
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

// tickRowClose closes the lowest-numbered bank the composed RowPolicy (the
// paper's default is the 120 ns timeout policy, Table 2 note 6) would close
// now. Entry b of the row-close table is the first cycle the policy closes
// bank b's row (RowPolicy.BankCloseCycle), so while the aggregate minimum
// lies in the future the tick costs two compares. Otherwise
// rowCloseComponent has just re-derived every dirty entry and every entry
// at or below the clock, and an entry ahead of the clock is never later
// than the true close cycle: the entries at or below now are exactly the
// banks the policy closes now. Policies that never close (open-page) answer
// ffNever and pay nothing here.
func (c *Controller) tickRowClose(now int64) {
	if c.rowCloseComponent(now) > now {
		return
	}
	for b, e := range c.ffBankTO {
		if e <= now {
			c.closeRow(b)
			return // one command per cycle
		}
	}
}

// Drained reports whether all queues and in-flight completions are empty.
func (c *Controller) Drained() bool {
	return c.Pending() == 0 && c.completions.Len() == 0
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
