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
	"clrdram/internal/trace"
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
	opts    Options
	clr     core.Config
	cores   []*cpu.Core
	readers []trace.Reader
	llc     *cache.Cache
	ctrls   []*mem.Controller // one per channel
	meters  []*power.Meter    // one per channel
	mapper  *core.PageMapper
	bases   []uint64 // per-core base addresses in the global space

	// Dynamic-reconfiguration state (nil/zero for baseline systems).
	threshold  *core.DynamicThreshold
	devCfg     dram.Config
	rankings   [][]int
	totalPages int

	cpuCycle   int64
	dramAcc    float64
	dramPerCPU float64

	// Observability (nil unless Options.CollectStats): the run's registry
	// and the per-core cumulative-instruction series feeding epoch IPC.
	reg       *metrics.Registry
	ipcSeries []*metrics.EpochSeries

	hits      hitHeap
	pendingWB []uint64
	reqFree   []*pooledRequest // fetch and writeback requests the controllers handed back

	// Scratch buffer for the fast-forward planner (see fastforward.go),
	// plus skip accounting (FFStats).
	ffStates  []cpu.FFState
	ffSkips   int64
	ffSkipped int64

	// Channel of each port-blocked core's retried address, recorded by
	// portAccepts for the decoupled stretch's wake check.
	ffPortCh []int

	// Coalesced joint-horizon cache (jointHorizon): the minimum controller
	// horizon, valid while every per-channel HorizonGen is unchanged and
	// the clock sits below it.
	ffGens    []uint64
	ffJointH  int64
	ffJointOK bool

	// Planner-off countdown (runLoop): real steps left before the next
	// planning attempt after a paced or failed one.
	ffSleep int64

	// Decoupled per-core lag state (decoupled.go): when planSkip finds a
	// mixed classification (some cores skippable, some not), each skippable
	// core carries a lag counter instead of ticking while the rest of the
	// system steps for real. ffStates[i] holds the captured classification
	// for the whole lag interval; ffLagCap bounds it (CapCycles plus any
	// RunFor ceiling); ffPortGen is the last-seen read-queue dequeue
	// generation of a port-blocked core's cached channel. ffAnyLag is the
	// cheap "is anything lagged" gate the completion hooks check.
	ffCanLag       []bool
	ffLagged       []bool
	ffLag          []int64
	ffLagCap       []int64
	ffPortGen      []uint64
	ffRetryAt      []int64
	ffAnyLag       bool
	ffMixed        bool
	ffLagFlushes   int64
	ffLaggedCycles int64
	// ffOnFlush, when non-nil, runs after every lag flush (test-only
	// instrumentation for the flush-boundary twin invariant).
	ffOnFlush func(core int, k int64)
}

// FFStats reports how much of the run the fast-forward path covered: the
// number of bulk skips applied and the total CPU cycles they absorbed.
func (s *System) FFStats() (skips, skippedCycles int64) {
	return s.ffSkips, s.ffSkipped
}

// FFLagStats reports the decoupled-skip path's activity (DESIGN.md §15):
// how many lag flushes ran and how many core-cycles were absorbed by lag
// counters instead of per-cycle Ticks. Like FFStats these are wall-clock
// diagnostics (surfaced by cmd/ffbench as `lag_flushes` and
// `lagged_core_cycles`), deliberately kept out of Result and the canonical
// RunReport so reports stay identical across fast-forward modes.
func (s *System) FFLagStats() (lagFlushes, laggedCoreCycles int64) {
	return s.ffLagFlushes, s.ffLaggedCycles
}

// NewSystem builds a system running the given per-core workload profiles
// under the given CLR-DRAM configuration. All profiles use Options.Seed
// (offset per core) so runs are reproducible.
func NewSystem(profiles []workload.Profile, clr core.Config, opts Options) (*System, error) {
	if opts.Standard != "" || opts.Device.BankGroups == 0 {
		std, err := dram.NewStandard(opts.Standard)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if clr.Enabled && !std.CLRCapable() {
			return nil, fmt.Errorf("sim: standard %q has a fixed timing table and cannot model CLR-DRAM row modes; run it with the baseline configuration", std.Name())
		}
		if opts.Device.BankGroups == 0 {
			opts.Device = std.DeviceConfig()
		}
	}
	opts = opts.withDefaults()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no workloads")
	}
	if err := clr.Validate(); err != nil {
		return nil, err
	}

	devCfg, refresh, err := clr.Build(opts.Device)
	if err != nil {
		return nil, err
	}
	// Replace the static threshold with a mutable one so the system can be
	// reconfigured at run time (Reconfigure); the device consults it at
	// every ACT.
	var threshold *core.DynamicThreshold
	if clr.Enabled {
		threshold = core.NewDynamicThreshold(clr.HPRows(devCfg.Rows), dram.ModeMaxCap)
		devCfg.ModeOf = threshold
	}

	// Layout: each core gets a private page-aligned region of the global
	// address space, packed contiguously.
	bases := make([]uint64, len(profiles))
	var totalPages int
	for i, p := range profiles {
		bases[i] = uint64(totalPages) * core.PageBytes
		totalPages += p.FootprintPages
	}

	// Profile each workload (fresh readers, same seed as the run) and
	// build the global hot-page ranking: each workload contributes its top
	// HPFraction pages, interleaved by rank across cores (§8.1). With a
	// WarmupCache installed, the rankings — along with the warmed LLC and
	// positioned readers consumed below — are computed once per workload
	// set and forked across every configuration of the sweep (§13): they
	// depend only on (profiles, seed, record budgets, LLC geometry), never
	// on the CLR configuration under test.
	var ws *warmState
	if opts.Warmup != nil {
		ws, err = opts.Warmup.state(profiles, opts)
		if err != nil {
			return nil, err
		}
	}
	rankings := make([][]int, len(profiles))
	if ws != nil {
		copy(rankings, ws.rankings)
	} else {
		for i, p := range profiles {
			prof := core.NewProfiler()
			prof.Sample(p.NewReader(opts.Seed+int64(i)), opts.ProfileRecords)
			rankings[i] = prof.Ranking(p.FootprintPages)
		}
	}
	ranking := combineRankings(rankings, bases, clr.HPFraction)
	mapper, err := core.BuildMappingMulti(devCfg, clr, ranking, totalPages, opts.Channels)
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

	llc := cache.New(opts.LLC)
	if ws != nil {
		llc = ws.llc.Clone()
	}
	s := &System{
		opts:       opts,
		clr:        clr,
		llc:        llc,
		ctrls:      ctrls,
		meters:     meters,
		mapper:     mapper,
		bases:      bases,
		threshold:  threshold,
		devCfg:     devCfg,
		rankings:   rankings,
		totalPages: totalPages,
		dramPerCPU: (1.0 / opts.CPUClockGHz) / devCfg.ClockNS,
		reg:        reg,
	}
	s.ffGens = make([]uint64, len(ctrls))

	s.cores = make([]*cpu.Core, len(profiles))
	s.ffStates = make([]cpu.FFState, len(profiles))
	s.ffPortCh = make([]int, len(profiles))
	s.ffCanLag = make([]bool, len(profiles))
	s.ffLagged = make([]bool, len(profiles))
	s.ffLag = make([]int64, len(profiles))
	s.ffLagCap = make([]int64, len(profiles))
	s.ffPortGen = make([]uint64, len(profiles))
	s.ffRetryAt = make([]int64, len(profiles))
	s.readers = make([]trace.Reader, len(profiles))
	for i, p := range profiles {
		var rd trace.Reader
		if ws != nil {
			rd = ws.readers[i].(trace.CloneableReader).CloneReader()
		} else {
			rd = p.NewReader(opts.Seed + int64(i))
		}
		s.readers[i] = rd
		s.cores[i] = cpu.New(i, opts.CPU, rd, (*memPort)(s), opts.TargetInstructions)
	}
	if reg != nil {
		s.ipcSeries = make([]*metrics.EpochSeries, len(s.cores))
		for i := range s.cores {
			s.ipcSeries[i] = reg.Series(fmt.Sprintf("cpu.core%d.instructions", i), opts.StatsEpochCycles)
		}
	}

	if ws == nil {
		s.warmup()
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
// remaining pages in ascending global page order.
func combineRankings(rankings [][]int, bases []uint64, frac float64) []int {
	total := 0
	for _, r := range rankings {
		total += len(r)
	}
	out := make([]int, 0, total)
	taken := make([]map[int]bool, len(rankings))
	hotN := make([]int, len(rankings))
	maxHot := 0
	for i, r := range rankings {
		hotN[i] = int(frac * float64(len(r)))
		if hotN[i] > maxHot {
			maxHot = hotN[i]
		}
		taken[i] = make(map[int]bool, hotN[i])
	}
	for pos := 0; pos < maxHot; pos++ {
		for i, r := range rankings {
			if pos < hotN[i] {
				page := r[pos]
				taken[i][page] = true
				out = append(out, int(bases[i]/core.PageBytes)+page)
			}
		}
	}
	for i, r := range rankings {
		base := int(bases[i] / core.PageBytes)
		for page := 0; page < len(r); page++ {
			if !taken[i][page] {
				out = append(out, base+page)
			}
		}
	}
	return out
}

// warmup streams WarmupRecords per core through the LLC with no timing, so
// the measured phase starts with realistic cache state (§8.1 fast-forward).
func (s *System) warmup() {
	for i := range s.cores {
		for n := 0; n < s.opts.WarmupRecords; n++ {
			rec, err := s.readers[i].Next()
			if err != nil {
				break
			}
			addr := s.bases[i] + rec.Addr
			if s.llc.Access(addr, rec.Write, nil) == cache.Miss {
				if victim, wb := s.llc.Fill(s.llc.LineAddr(addr)); wb {
					_ = victim // warmup writebacks carry no timing cost
				}
			}
		}
	}
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
		if s.ffAnyLag && s.ffLagged[r.Core] {
			s.flushLag(r.Core)
		}
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
	s.dramAcc += s.dramPerCPU
	for s.dramAcc >= 1 {
		for _, ctrl := range s.ctrls {
			ctrl.Tick()
		}
		s.dramAcc--
	}
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
// decoupled lag path can flush a lagged core before its completion fires.
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
