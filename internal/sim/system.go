package sim

import (
	"context"
	"fmt"

	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/cpu"
	"clrdram/internal/dram"
	"clrdram/internal/mem"
	"clrdram/internal/metrics"
	"clrdram/internal/power"
	"clrdram/internal/stats"
	"clrdram/internal/workload"
)

// Result captures everything the experiment layer needs from one run.
type Result struct {
	CLR        core.Config
	PerCore    []stats.CoreStats
	CPUCycles  int64 // cycles until the last core reached its target
	DRAMCycles int64
	Energy     power.Breakdown
	PowerMW    float64
	Mem        mem.Stats
	LLC        cache.Stats
	TimedOut   bool
	// BankUtil is the mean per-bank data-burst occupancy across all banks
	// and channels: (RD+WR commands) × BL / device cycles per bank,
	// averaged. Always computed (the underlying command counts are free).
	BankUtil float64
	// Report is the structured observability report, non-nil only when
	// Options.CollectStats was set.
	Report *RunReport
}

// IPC returns per-core IPCs.
func (r Result) IPC() []float64 {
	out := make([]float64, len(r.PerCore))
	for i, c := range r.PerCore {
		out[i] = c.IPC()
	}
	return out
}

// System is one assembled simulation instance.
type System struct {
	opts   Options
	clr    core.Config
	cores  []*cpu.Core
	llc    *cache.Cache
	ctrls  []*mem.Controller // one per channel
	meters []*power.Meter    // one per channel
	mapper *core.PageMapper
	bases  []uint64 // per-core base addresses in the global space

	// Dynamic-reconfiguration state (nil/zero for baseline systems).
	threshold  *core.DynamicThreshold
	devCfg     dram.Config
	rankings   [][]int
	totalPages int

	cpuCycle int64
	clk      devClock

	// Observability (nil unless Options.CollectStats): the run's registry
	// and the per-core cumulative-instruction series feeding epoch IPC.
	reg       *metrics.Registry
	ipcSeries []*metrics.EpochSeries

	hits      hitHeap
	pendingWB []uint64
	reqFree   []*pooledRequest // fetch and writeback requests the controllers handed back

	// Fast-forward state (fastforward.go). A lagged core (ffLagged[i])
	// counts ffLag[i] cycles instead of ticking, under the classification
	// ffStates[i] captured when its lag opened, until ffLagCap[i] (CapCycles
	// tightened by any RunFor ceiling). ffSkips and ffSkipped count jumps
	// and the cycles they covered (FFStats), ffLagFlushes and
	// ffLaggedCycles flushes and core-cycles lagged on real cycles
	// (FFLagStats).
	ffStates       []cpu.FFState
	ffLagged       []bool
	ffLag          []int64
	ffLagCap       []int64
	ffSkips        int64
	ffSkipped      int64
	ffLagFlushes   int64
	ffLaggedCycles int64
	// ffOnFlush, when non-nil, runs after every lag flush (test-only
	// instrumentation for the flush-boundary twin invariant).
	ffOnFlush func(core int, k int64)

	// Coalesced joint-horizon cache (jointHorizon): the minimum controller
	// horizon, valid while every per-channel HorizonGen is unchanged and
	// the clock sits below it.
	ffGens    []uint64
	ffJointH  int64
	ffJointOK bool

	// paused counts the CPU cycles the cores sat paused during
	// stop-the-world migration (stepMemoryOnly): a core's own clock runs
	// this far behind cpuCycle.
	paused int64
}

// FFStats reports how much of the run the fast-forward loop jumped
// (DESIGN.md §9): the number of jumps and the CPU cycles they covered, in
// which no core ticked.
func (s *System) FFStats() (skips, skippedCycles int64) {
	return s.ffSkips, s.ffSkipped
}

// FFLagStats reports the fast-forward loop's per-core lag: how many lag
// flushes ran, and how many core-cycles of real (not jumped) cycles lag
// counters absorbed instead of per-cycle Ticks. The two stats are disjoint:
// the run ticked its cores cores × (CPUCycles − skippedCycles) −
// laggedCoreCycles times.
// Like FFStats these are wall-clock diagnostics (surfaced by cmd/ffbench as
// `lag_flushes` and `lagged_core_cycles`), deliberately kept out of Result
// and the canonical RunReport so reports stay identical across
// fast-forward modes.
func (s *System) FFLagStats() (lagFlushes, laggedCoreCycles int64) {
	return s.ffLagFlushes, s.ffLaggedCycles
}

// NewSystem builds a system running the given per-core workload profiles
// under the given CLR-DRAM configuration. All profiles use Options.Seed
// (offset per core) so runs are reproducible.
func NewSystem(profiles []workload.Profile, clr core.Config, opts Options) (*System, error) {
	return newSystem(profiles, clr, opts, nil)
}

// newSystem is NewSystem starting from ws, a fork of prewarm(profiles, opts)
// that the system takes over, or warming up cold when ws is nil.
func newSystem(profiles []workload.Profile, clr core.Config, opts Options, ws *warmState) (*System, error) {
	opts = opts.withDefaults()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no workloads")
	}
	if err := clr.Validate(); err != nil {
		return nil, err
	}
	dev, err := dram.StandardConfig(opts.Standard)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	devCfg, refresh, err := clr.Build(dev)
	if err != nil {
		return nil, fmt.Errorf("sim: standard %q: %w", opts.Standard, err)
	}
	ratio := (1.0 / opts.CPUClockGHz) / devCfg.ClockNS
	if ratio > maxClockRatio {
		return nil, &OptionsError{Field: "CPUClockGHz", Detail: fmt.Sprintf(
			"%v: one core cycle spans %.4g %s cycles, want ≤ %d", opts.CPUClockGHz, ratio, opts.Standard, maxClockRatio)}
	}
	// Replace the static threshold with a mutable one so the system can be
	// reconfigured at run time (Reconfigure); the device consults it at
	// every ACT.
	var threshold *core.DynamicThreshold
	if clr.Enabled {
		threshold = core.NewDynamicThreshold(clr.HPRows(devCfg.Rows), dram.ModeMaxCap)
		devCfg.ModeOf = threshold
	}

	// Pre-measurement: layout, profiling and LLC warm-up (prewarm). A sweep
	// row runs them once per workload set and forks them into every
	// configuration (§13): they depend only on (profiles, seed, record
	// budgets, LLC geometry), never on the CLR configuration under test.
	// The global hot-page ranking takes each workload's top HPFraction
	// pages, interleaved by rank across cores (§8.1).
	if ws == nil {
		if ws, err = prewarm(profiles, opts); err != nil {
			return nil, err
		}
	}
	ranking := combineRankings(ws.rankings, ws.bases, clr.HPFraction)
	mapper, err := core.BuildMappingMulti(devCfg, clr, ranking, ws.totalPages, opts.Channels)
	if err != nil {
		return nil, err
	}

	var reg *metrics.Registry
	if opts.CollectStats {
		reg = metrics.NewRegistry()
	}

	ctrls := make([]*mem.Controller, opts.Channels)
	meters := make([]*power.Meter, opts.Channels)
	for ch := 0; ch < opts.Channels; ch++ {
		meter := power.NewMeter(power.Config{
			IDD:     opts.IDD,
			ClockNS: devCfg.ClockNS,
			Timings: timingNSTable(clr),
		})
		chCfg := devCfg
		chCfg.Listener = meter
		dev := dram.NewDevice(chCfg)
		memCfg := opts.Mem
		memCfg.Refresh = refresh
		memCfg.Metrics = reg.Sub(fmt.Sprintf("mem.ch%d", ch)) // nil-safe: Sub of nil is nil
		ctrl, err := mem.NewController(dev, memCfg)
		if err != nil {
			return nil, err
		}
		ctrls[ch] = ctrl
		meters[ch] = meter
	}

	s := &System{
		opts:       opts,
		clr:        clr,
		llc:        ws.llc,
		ctrls:      ctrls,
		meters:     meters,
		mapper:     mapper,
		bases:      ws.bases,
		threshold:  threshold,
		devCfg:     devCfg,
		rankings:   ws.rankings,
		totalPages: ws.totalPages,
		clk:        newDevClock(ratio),
		reg:        reg,
	}
	s.ffGens = make([]uint64, len(ctrls))

	s.cores = make([]*cpu.Core, len(profiles))
	s.ffStates = make([]cpu.FFState, len(profiles))
	s.ffLagged = make([]bool, len(profiles))
	s.ffLag = make([]int64, len(profiles))
	s.ffLagCap = make([]int64, len(profiles))
	for i, rd := range ws.readers {
		s.cores[i] = cpu.New(i, opts.CPU, rd, (*memPort)(s), opts.TargetInstructions)
	}
	if reg != nil {
		s.ipcSeries = make([]*metrics.EpochSeries, len(s.cores))
		for i := range s.cores {
			s.ipcSeries[i] = reg.Series(fmt.Sprintf("cpu.core%d.instructions", i), opts.StatsEpochCycles)
		}
	}
	return s, nil
}

// timingNSTable assembles the per-mode nanosecond timings for the meter.
func timingNSTable(clr core.Config) [dram.NumModes]dram.TimingNS {
	tab := clr.Table
	if tab == nil {
		tab = core.DefaultTable()
	}
	var out [dram.NumModes]dram.TimingNS
	out[dram.ModeDefault] = tab.Baseline
	out[dram.ModeMaxCap] = tab.MaxCap
	hp := tab.HighPerfET
	if clr.Enabled {
		if h, err := tab.HighPerfAt(clr.REFWms, clr.EarlyTermination); err == nil {
			hp = h
		}
	}
	out[dram.ModeHighPerf] = hp
	return out
}

// combineRankings merges per-core page rankings into one global ranking:
// first every core's top `frac` pages round-robin by rank position, then all
// remaining pages in ascending global page order. The cores' regions tile
// the global space (prewarm), so taken pages are marked by global page.
func combineRankings(rankings [][]int, bases []uint64, frac float64) []int {
	total := 0
	for _, r := range rankings {
		total += len(r)
	}
	out := make([]int, 0, total)
	taken := make([]bool, total)
	hotN := make([]int, len(rankings))
	maxHot := 0
	for i, r := range rankings {
		hotN[i] = int(frac * float64(len(r)))
		if hotN[i] > maxHot {
			maxHot = hotN[i]
		}
	}
	for pos := 0; pos < maxHot; pos++ {
		for i, r := range rankings {
			if pos < hotN[i] {
				page := int(bases[i]/core.PageBytes) + r[pos]
				taken[page] = true
				out = append(out, page)
			}
		}
	}
	for i, r := range rankings {
		base := int(bases[i] / core.PageBytes)
		for page := base; page < base+len(r); page++ {
			if !taken[page] {
				out = append(out, page)
			}
		}
	}
	return out
}

// memPort adapts System to cpu.MemPort.
type memPort System

// Load implements cpu.MemPort.
func (p *memPort) Load(coreID int, addr uint64, onDone func()) bool {
	s := (*System)(p)
	global := s.bases[coreID] + addr
	// Conservative: require controller space before touching the cache so
	// a Miss never needs MSHR rollback.
	ch, _ := s.mapper.TranslateChannel(s.llc.LineAddr(global))
	if !s.ctrls[ch].CanEnqueue(false) {
		return false
	}
	switch s.llc.Access(global, false, onDone) {
	case cache.Hit:
		s.hits.push(hitEvent{due: s.cpuCycle + int64(s.opts.LLC.HitLatency), core: coreID, fn: onDone})
		return true
	case cache.MergedMiss:
		return true
	case cache.Miss:
		s.cores[coreID].CountLLCMiss()
		s.sendFetch(coreID, global)
		return true
	default: // Rejected: LLC MSHRs exhausted
		return false
	}
}

// Store implements cpu.MemPort.
func (p *memPort) Store(coreID int, addr uint64) bool {
	s := (*System)(p)
	global := s.bases[coreID] + addr
	ch, _ := s.mapper.TranslateChannel(s.llc.LineAddr(global))
	if !s.ctrls[ch].CanEnqueue(false) {
		return false
	}
	switch s.llc.Access(global, true, nil) {
	case cache.Hit, cache.MergedMiss:
		return true
	case cache.Miss:
		// Write-allocate: fetch the line; the store retires immediately.
		s.sendFetch(coreID, global)
		return true
	default:
		return false
	}
}

// sendFetch enqueues the memory read that backs an LLC miss.
func (s *System) sendFetch(coreID int, global uint64) {
	line := s.llc.LineAddr(global)
	ch, da := s.mapper.TranslateChannel(line)
	if !s.ctrls[ch].EnqueueDecoded(s.request(line, false, coreID), da) {
		// CanEnqueue was checked by the caller in the same CPU cycle and no
		// controller tick has happened since, so this cannot occur.
		panic("sim: read enqueue failed after CanEnqueue")
	}
}

// writeback enqueues a dirty-victim write, buffering it if the write queue
// is full (retried every CPU cycle).
func (s *System) writeback(victim uint64) {
	if !s.enqueueWrite(victim) {
		s.pendingWB = append(s.pendingWB, victim)
	}
}

// retryWritebacks enqueues buffered writebacks, newest first, until a write
// queue refuses one.
func (s *System) retryWritebacks() {
	for len(s.pendingWB) > 0 && s.enqueueWrite(s.pendingWB[len(s.pendingWB)-1]) {
		s.pendingWB = s.pendingWB[:len(s.pendingWB)-1]
	}
}

// enqueueWrite enqueues the writeback of line if its channel's write queue
// has room.
func (s *System) enqueueWrite(line uint64) bool {
	ch, da := s.mapper.TranslateChannel(line)
	if !s.ctrls[ch].CanEnqueue(true) {
		return false
	}
	s.ctrls[ch].EnqueueDecoded(s.request(line, true, 0), da)
	return true
}

// pooledRequest is a fetch or writeback request the System recycles. The
// controller hands it back by calling OnComplete — when a fetch's data
// arrives, when a writeback issues — and never touches it afterwards.
type pooledRequest struct {
	mem.Request
	s    *System
	done func(int64) // the complete method value, bound once
}

// request returns a pooled request, re-initialised for the given line.
func (s *System) request(line uint64, write bool, coreID int) *mem.Request {
	var r *pooledRequest
	if n := len(s.reqFree); n > 0 {
		r = s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
	} else {
		r = &pooledRequest{s: s}
		r.done = r.complete
	}
	r.Request = mem.Request{Addr: line, Write: write, Core: coreID, OnComplete: r.done}
	return &r.Request
}

// complete fills the LLC line a fetch brought back (a writeback has nothing
// left to do) and returns the request to the pool.
func (r *pooledRequest) complete(int64) {
	s := r.s
	if !r.Write {
		// Wake a lagged requester BEFORE the fill runs its MSHR waiters:
		// loadDone stamps the core's local cycle into the window slot,
		// so the lag must be applied first (per-core address spaces are
		// private — every waiter on this line belongs to the requester).
		s.flushLag(r.Core)
		if victim, wb := s.llc.Fill(r.Addr); wb {
			s.writeback(victim)
		}
	}
	s.reqFree = append(s.reqFree, r)
}

// step advances the whole system by one CPU cycle.
func (s *System) step() {
	// Fire due LLC-hit completions.
	for s.hits.Len() > 0 && s.hits.peek().due <= s.cpuCycle {
		s.hits.pop().fn()
	}
	s.retryWritebacks()
	for _, c := range s.cores {
		c.Tick()
	}
	s.clockCycle()
	s.cpuCycle++
	if s.ipcSeries != nil {
		for i, c := range s.cores {
			s.ipcSeries[i].Observe(s.cpuCycle, float64(c.Retired()))
		}
	}
}

// Run executes until every core reaches its instruction target (or the
// safety bound) and returns the result.
func (s *System) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext is Run with cancellation: it checks ctx periodically and
// returns ctx's error (with a zero Result) if it is cancelled mid-run.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	allDone := func() bool {
		for _, c := range s.cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	}
	timedOut, err := s.runLoop(ctx, allDone, nil)
	if err != nil {
		return Result{}, err
	}
	return s.snapshotResult(timedOut), nil
}

// snapshotResult assembles a Result from the current simulation state.
func (s *System) snapshotResult(timedOut bool) Result {
	res := Result{
		CLR:        s.clr,
		CPUCycles:  s.cpuCycle,
		DRAMCycles: s.ctrls[0].Clock(),
		LLC:        s.llc.Stats(),
		TimedOut:   timedOut,
	}
	for ch, ctrl := range s.ctrls {
		e := s.meters[ch].Energy(ctrl.Clock())
		res.Energy.ActPre += e.ActPre
		res.Energy.ReadWrite += e.ReadWrite
		res.Energy.IO += e.IO
		res.Energy.Refresh += e.Refresh
		res.Energy.Background += e.Background
		res.PowerMW += s.meters[ch].AveragePowerMW(ctrl.Clock())
		st := ctrl.Stats()
		res.Mem.RowBuffer.Hits += st.RowBuffer.Hits
		res.Mem.RowBuffer.Misses += st.RowBuffer.Misses
		res.Mem.RowBuffer.Conflicts += st.RowBuffer.Conflicts
		res.Mem.ReadsServed += st.ReadsServed
		res.Mem.WritesServed += st.WritesServed
		res.Mem.Refreshes += st.Refreshes
		res.Mem.TimeoutCloses += st.TimeoutCloses
		res.Mem.CapTrips += st.CapTrips
	}
	for _, c := range s.cores {
		res.PerCore = append(res.PerCore, c.Stats())
	}
	res.BankUtil = s.bankUtil()
	if s.reg != nil {
		res.Report = s.buildReport(&res)
	}
	return res
}

// bankUtil computes the mean per-bank data-burst occupancy over all banks
// and channels (see Result.BankUtil).
func (s *System) bankUtil() float64 {
	var busy, slots float64
	for _, ctrl := range s.ctrls {
		dev := ctrl.Device()
		cfg := dev.Config()
		cycles := float64(dev.Clock())
		if cycles == 0 {
			continue
		}
		bl := float64(cfg.Timings[dram.ModeDefault].BL)
		for b := 0; b < cfg.Banks(); b++ {
			n := dev.BankCommandCount(b, dram.KindRD) + dev.BankCommandCount(b, dram.KindWR)
			busy += float64(n) * bl
			slots += cycles
		}
	}
	if slots == 0 {
		return 0
	}
	return busy / slots
}

// hitEvent is a scheduled LLC-hit completion. core tags the requester so the
// fast-forward loop can flush a lagged core before its completion fires.
type hitEvent struct {
	due  int64
	core int
	fn   func()
}

// hitHeap is a min-heap on due cycle. push and pop sift exactly as
// container/heap's Push and Pop do, so hits due on the same cycle fire in
// the same order; being typed, they box nothing per event.
type hitHeap struct{ evs []hitEvent }

func (h *hitHeap) Len() int       { return len(h.evs) }
func (h *hitHeap) peek() hitEvent { return h.evs[0] }

func (h *hitHeap) push(ev hitEvent) {
	h.evs = append(h.evs, ev)
	for j := len(h.evs) - 1; j > 0; {
		i := (j - 1) / 2
		if h.evs[j].due >= h.evs[i].due {
			break
		}
		h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
		j = i
	}
}

func (h *hitHeap) pop() hitEvent {
	n := len(h.evs) - 1
	h.evs[0], h.evs[n] = h.evs[n], h.evs[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.evs[j2].due < h.evs[j].due {
			j = j2
		}
		if h.evs[j].due >= h.evs[i].due {
			break
		}
		h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
		i = j
	}
	ev := h.evs[n]
	h.evs = h.evs[:n]
	return ev
}
