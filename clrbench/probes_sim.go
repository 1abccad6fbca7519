package main

import (
	"fmt"
	"math"
	"time"

	"clrdram/internal/cache"
	"clrdram/internal/core"
	"clrdram/internal/cpu"
	"clrdram/internal/dram"
	"clrdram/internal/mem"
	"clrdram/internal/power"
	"clrdram/internal/sim"
	"clrdram/internal/trace"
)

// The ROADMAP slates System.FFGovernorStats and Controller.Tick for
// deletion. The benchmark reaches them only through these assertions, so a
// change that removes one drops the metrics built on it (with a note)
// instead of breaking the benchmark's build.
type (
	governorStats interface {
		FFGovernorStats() (attempts, disengages int64)
	}
	ticker interface{ Tick() }
)

// ffCounts are the fast-forward counters of one run.
type ffCounts struct {
	skips, skipped int64 // bulk skips and the CPU cycles they covered
	lagged         int64 // core-cycles lagged instead of ticked
	attempts       int64 // planning attempts (governor); -1 if unavailable
}

func ffCountsOf(s *sim.System) ffCounts {
	var f ffCounts
	f.skips, f.skipped = s.FFStats()
	_, f.lagged = s.FFLagStats()
	f.attempts = -1
	if g, ok := any(s).(governorStats); ok {
		f.attempts, _ = g.FFGovernorStats()
	}
	return f
}

// simInputs rebuilds from public functions what sim.NewSystem derives from
// the workload, so the probes run on the same configuration: the per-core
// address layout, the CLR device with its row-mode threshold and refresh
// streams, and (after the core probe) the hot-page mapping.
type simInputs struct {
	opts       sim.Options
	clr        core.Config
	devCfg     dram.Config
	refresh    []mem.RefreshStream
	bases      []uint64
	totalPages int
	mapper     *core.PageMapper
}

func (b *bench) newSimInputs() (*simInputs, error) {
	in := &simInputs{opts: b.simOptions(false), clr: core.CLR(hpFraction)}
	var err error
	in.devCfg, in.refresh, err = in.clr.Build(dram.Standard16Gb())
	if err != nil {
		return nil, fmt.Errorf("core.Config.Build: %w", err)
	}
	in.devCfg.ModeOf = core.NewDynamicThreshold(in.clr.HPRows(in.devCfg.Rows), dram.ModeMaxCap)
	for _, p := range b.profiles {
		in.bases = append(in.bases, uint64(in.totalPages)*core.PageBytes)
		in.totalPages += p.FootprintPages
	}
	return in, nil
}

// simLayers runs the stats-on operation and the per-layer probes of a sim
// workload and fills the traced report, ledger included. plain are the
// run's untraced operations.
func (b *bench) simLayers(tr *tracer, rep *report, plain []opResult) error {
	if len(plain) == 0 {
		return fmt.Errorf("no successful untraced operation to take counts from")
	}
	ref := plain[0] // every operation of a run is identical; its counts are exact
	res := ref.res
	runNS := median(pick(plain, func(r opResult) float64 { return r.runCPU })) * 1e9

	st := b.op(tr, true)
	if st.err != nil {
		return fmt.Errorf("stats-on operation: %w", st.err)
	}
	commands, readLatency := modelledMetrics(rep, st.res)
	ffMetrics(rep, res, ref.ff)

	in, err := b.newSimInputs()
	if err != nil {
		return err
	}
	nsRecord := b.probeWorkload(tr)
	rep.set("workload.ns_per_record", nsRecord)
	if err := b.probeCore(tr, rep, in); err != nil {
		return err
	}
	co := b.probeCache(tr, in)
	rep.set("cache.ns_per_access", co.nsPerAccess)
	rep.set("cache.hit_ratio", co.hitRatio)

	cpuPerBus := float64(res.CPUCycles) / float64(res.DRAMCycles)
	missLat := int64(math.Round(readLatency * cpuPerBus))
	nsTick := b.probeCPU(tr, in, co, missLat)
	rep.set("cpu.ns_per_tick", nsTick)

	rate := float64(res.Mem.ReadsServed+res.Mem.WritesServed) / float64(res.DRAMCycles)
	mo, err := b.probeMem(tr, in, co.stream, rate)
	if err != nil {
		return err
	}
	var nsCmd float64
	if mo.dropped {
		rep.notes = append(rep.notes, "mem.Controller has no Tick: mem and dram probes dropped")
	} else {
		rep.set("mem.ns_per_tick", mo.nsPerTick)
		rep.set("mem.ns_per_request", mo.nsPerRequest)
		rep.set("mem.reject_ratio", mo.rejectRatio)
		if nsCmd, err = b.probeDRAM(tr, in, mo); err != nil {
			return err
		}
		rep.set("dram.ns_per_command", nsCmd)
	}

	// The ledger: each layer's ns per call times how often the end-to-end
	// run called it, as a share of the run's CPU time.
	cores := int64(len(res.PerCore))
	warm := uint64(b.sz.warmupRecords) * uint64(cores) // Result.LLC counts the warm-up too
	llc := res.LLC
	records := float64(llc.Hits + llc.Misses + llc.Merged - warm)
	llcCalls := records + float64(llc.Rejected)
	tickedFrac := 1 - float64(ref.ff.skipped)/float64(res.CPUCycles)
	busTicks := float64(res.DRAMCycles) * tickedFrac
	coreTicks := float64(cores*(res.CPUCycles-ref.ff.skipped) - ref.ff.lagged)
	dramNS := nsCmd * commands
	// A controller tick includes the device work of the commands it issues;
	// the dram replay prices those separately, so they are counted once.
	memNS := max(0, mo.nsPerTick*busTicks-dramNS)
	shares := []struct {
		layer string
		calls float64
		ns    float64
	}{
		{"workload", records, nsRecord * records},
		{"cache", llcCalls, co.nsPerAccess * llcCalls},
		{"cpu", coreTicks, nsTick * coreTicks},
		{"mem", busTicks, memNS},
		{"dram", commands, dramNS},
	}
	rest := 1.0
	rep.ledger = append(rep.ledger, fmt.Sprintf("ledger (run CPU %.1f ms):", runNS/1e6))
	for _, s := range shares {
		share := s.ns / runNS
		rest -= share
		rep.set("ledger."+s.layer+"_share", share)
		rep.ledger = append(rep.ledger, fmt.Sprintf("  %-9s %12.0f calls %9.1f ms %6.1f%%", s.layer, s.calls, s.ns/1e6, 100*share))
	}
	rep.set("sim.unattributed_share", rest)
	rep.ledger = append(rep.ledger, fmt.Sprintf("  %-9s %12s %9.1f ms %6.1f%%  (loop glue, planner, lag bookkeeping)",
		"rest", "", rest*runNS/1e6, 100*rest))
	return nil
}

// modelledMetrics fills the modelled-result metrics from a stats-on run's
// report and returns the number of device commands the run issued and its
// mean read latency in bus cycles.
func modelledMetrics(rep *report, res sim.Result) (commands, readLatency float64) {
	rp := res.Report
	if rp == nil {
		rep.probeFailed(fmt.Errorf("stats-on run returned no report"))
		return 0, 0
	}
	rep.set("mem.row_hit_ratio", rp.Totals.RowHitRate)
	rep.set("mem.cap_trips", float64(rp.Totals.CapTrips))
	var p99, drain, acts, hpActs, reads float64
	for _, ch := range rp.Channels {
		p99 = max(p99, ch.ReadLatency.P99)
		readLatency += ch.ReadLatency.Mean * float64(ch.ReadLatency.Samples)
		reads += float64(ch.ReadLatency.Samples)
		drain += float64(rp.Metrics.Counters[fmt.Sprintf("mem.ch%d.cycles.write_drain", ch.Channel)])
		for _, n := range ch.Commands {
			commands += float64(n)
		}
		acts += float64(ch.Commands[dram.KindACT.String()])
		hpActs += float64(ch.ModeCommands[dram.ModeHighPerf.String()][dram.KindACT.String()])
	}
	rep.set("mem.read_latency_p99_cycles", p99)
	rep.set("mem.write_drain_share", drain/float64(len(rp.Channels))/float64(rp.Totals.DRAMCycles))
	if acts > 0 {
		rep.set("dram.hp_act_share", hpActs/acts)
	}
	var blocked, cycles float64
	for _, c := range rp.Cores {
		blocked += float64(c.MemBlockedCycles)
		cycles += float64(c.Cycles)
	}
	rep.set("cpu.mem_blocked_share", blocked/cycles)
	if reads > 0 {
		readLatency /= reads
	}
	return commands, readLatency
}

// ffMetrics fills the fast-forward coverage metrics.
func ffMetrics(rep *report, res sim.Result, ff ffCounts) {
	cycles := float64(res.CPUCycles)
	rep.set("sim.skip_coverage", float64(ff.skipped)/cycles)
	if ff.skips > 0 {
		rep.set("sim.cycles_per_skip", float64(ff.skipped)/float64(ff.skips))
	}
	rep.set("sim.lag_coverage", float64(ff.lagged)/(cycles*float64(len(res.PerCore))))
	switch {
	case ff.attempts < 0:
		rep.notes = append(rep.notes, "sim.System has no FFGovernorStats: sim.plan_yield dropped")
	case ff.attempts > 0:
		rep.set("sim.plan_yield", float64(ff.skips)/float64(ff.attempts))
	}
}

// probeWorkload times Profile.NewReader(seed).Next: each core's record
// generator, seeded as the simulation seeds it.
func (b *bench) probeWorkload(tr *tracer) float64 {
	bt := newBatchTimer(tr, "workload", "probe.workload")
	defer bt.done()
	readers := make([]trace.Reader, len(b.profiles))
	for i, p := range b.profiles {
		readers[i] = p.NewReader(b.seed + int64(i))
	}
	for k := 0; k < b.sz.probeBatches; k++ {
		bt.time("Reader.Next", func() int64 {
			for _, rd := range readers {
				for n := 0; n < b.sz.recordsPer; n++ {
					_, _ = rd.Next() // workload generators never fail
				}
			}
			return int64(len(readers) * b.sz.recordsPer)
		})
	}
	return median(bt.nsPerCall)
}

// probeCore times the set-up work of the core layer: profiling each
// workload's hottest pages and building the hot-page mapping. It leaves the
// mapping in in.mapper for the mem probe.
func (b *bench) probeCore(tr *tracer, rep *report, in *simInputs) error {
	bt := newBatchTimer(tr, "core", "probe.core")
	defer bt.done()
	var profileMS, mappingMS []float64
	rankings := make([][]int, len(b.profiles))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for k := 0; k < b.sz.profileReps; k++ {
		d := bt.time("Profiler.Sample+Ranking", func() int64 {
			for i, p := range b.profiles {
				prof := core.NewProfiler()
				prof.Sample(p.NewReader(b.seed+int64(i)), in.opts.ProfileRecords)
				rankings[i] = prof.Ranking(p.FootprintPages)
			}
			return int64(len(b.profiles))
		})
		profileMS = append(profileMS, ms(d))

		ranking := combineRankings(rankings, in.bases, in.clr.HPFraction)
		var err error
		d = bt.time("BuildMappingMulti", func() int64 {
			in.mapper, err = core.BuildMappingMulti(in.devCfg, in.clr, ranking, in.totalPages, 1)
			return 1
		})
		mappingMS = append(mappingMS, ms(d))
		if err != nil {
			return fmt.Errorf("core.BuildMappingMulti: %w", err)
		}
	}
	rep.set("core.profile_ms", median(profileMS))
	rep.set("core.mapping_ms", median(mappingMS))
	return nil
}

// combineRankings merges per-core page rankings into one global ranking the
// way sim.NewSystem does: every core's top frac pages round-robin by rank,
// then all remaining pages in ascending global order.
func combineRankings(rankings [][]int, bases []uint64, frac float64) []int {
	var out []int
	hotN := make([]int, len(rankings))
	taken := make([]map[int]bool, len(rankings))
	maxHot := 0
	for i, r := range rankings {
		hotN[i] = int(frac * float64(len(r)))
		maxHot = max(maxHot, hotN[i])
		taken[i] = make(map[int]bool, hotN[i])
	}
	for pos := 0; pos < maxHot; pos++ {
		for i, r := range rankings {
			if pos < hotN[i] {
				taken[i][r[pos]] = true
				out = append(out, int(bases[i]/core.PageBytes)+r[pos])
			}
		}
	}
	for i, r := range rankings {
		base := int(bases[i] / core.PageBytes)
		for page := range r {
			if !taken[i][page] {
				out = append(out, base+page)
			}
		}
	}
	return out
}

// memReq is one request of the cache probe's miss stream.
type memReq struct {
	line  uint64
	write bool
}

// cacheOut is what the cache probe measured and recorded for the probes
// after it.
type cacheOut struct {
	nsPerAccess float64
	hitRatio    float64
	records     [][]trace.Record // each core's measured records
	loadMiss    [][]bool         // each core's load outcomes, in order
	stream      []memReq         // misses (reads) and dirty victims (writes)
}

// probeCache times cache.Access and Fill over the per-core record streams,
// cores interleaved one record at a time, after warming the LLC as
// sim.NewSystem does. A miss fills at once; the misses and the dirty
// victims they evict form the mem probe's request stream.
func (b *bench) probeCache(tr *tracer, in *simInputs) cacheOut {
	bt := newBatchTimer(tr, "cache", "probe.cache")
	defer bt.done()
	n := len(b.profiles)
	warm := make([][]trace.Record, n)
	var out cacheOut
	out.records = make([][]trace.Record, n)
	out.loadMiss = make([][]bool, n)
	bt.untimed("workload", "Reader.Next (probe inputs)", func() {
		for i, p := range b.profiles {
			rd := p.NewReader(b.seed + int64(i))
			warm[i] = readRecords(rd, b.sz.warmupRecords)
			out.records[i] = readRecords(rd, b.sz.cacheRecords)
			out.loadMiss[i] = make([]bool, 0, b.sz.cacheRecords)
		}
	})
	llc := cache.New(in.opts.LLC)
	bt.untimed("cache", "warm-up", func() {
		for i := range warm {
			for _, rec := range warm[i] {
				addr := in.bases[i] + rec.Addr
				if llc.Access(addr, rec.Write, nil) == cache.Miss {
					llc.Fill(llc.LineAddr(addr))
				}
			}
		}
	})
	out.stream = make([]memReq, 0, n*b.sz.cacheRecords)
	hits0 := llc.Stats().Hits
	per := (b.sz.cacheRecords + b.sz.probeBatches - 1) / b.sz.probeBatches
	for lo := 0; lo < b.sz.cacheRecords; lo += per {
		hi := min(lo+per, b.sz.cacheRecords)
		bt.time("Access+Fill", func() int64 {
			for k := lo; k < hi; k++ {
				for i := 0; i < n; i++ {
					rec := out.records[i][k]
					addr := in.bases[i] + rec.Addr
					o := llc.Access(addr, rec.Write, nil)
					if !rec.Write {
						out.loadMiss[i] = append(out.loadMiss[i], o == cache.Miss)
					}
					if o != cache.Miss {
						continue
					}
					line := llc.LineAddr(addr)
					out.stream = append(out.stream, memReq{line: line})
					if victim, wb := llc.Fill(line); wb {
						out.stream = append(out.stream, memReq{line: victim, write: true})
					}
				}
			}
			return int64((hi - lo) * n)
		})
	}
	out.nsPerAccess = median(bt.nsPerCall)
	out.hitRatio = float64(llc.Stats().Hits-hits0) / float64(bt.calls)
	return out
}

func readRecords(rd trace.Reader, n int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i], _ = rd.Next() // workload generators never fail
	}
	return out
}

// fixedPort is the cpu probe's memory system: it accepts every access and
// completes each load after a fixed latency, a miss or a hit as the cache
// probe found that load to be.
type fixedPort struct {
	now             int64
	hitLat, missLat int64
	loadMiss        [][]bool
	next            []int
	hits, misses    doneQueue
}

// doneQueue holds completions in due order: all of one queue's entries
// share a latency, so appending keeps them sorted.
type doneQueue struct {
	due  []int64
	fn   []func()
	head int
}

func (q *doneQueue) push(due int64, fn func()) {
	if q.head == len(q.due) {
		q.due, q.fn, q.head = q.due[:0], q.fn[:0], 0
	}
	q.due = append(q.due, due)
	q.fn = append(q.fn, fn)
}

func (q *doneQueue) fire(now int64) {
	for q.head < len(q.due) && q.due[q.head] <= now {
		q.fn[q.head]()
		q.head++
	}
}

func (p *fixedPort) Load(core int, _ uint64, onDone func()) bool {
	outcomes := p.loadMiss[core]
	miss := len(outcomes) > 0 && outcomes[p.next[core]%len(outcomes)]
	p.next[core]++
	if miss {
		p.misses.push(p.now+p.missLat, onDone)
	} else {
		p.hits.push(p.now+p.hitLat, onDone)
	}
	return true
}

func (p *fixedPort) Store(int, uint64) bool { return true }

// probeCPU times cpu.Core.Tick on every core, fed each core's measured
// records and answered by a fixedPort whose miss latency is the end-to-end
// run's mean read latency.
func (b *bench) probeCPU(tr *tracer, in *simInputs, co cacheOut, missLat int64) float64 {
	bt := newBatchTimer(tr, "cpu", "probe.cpu")
	defer bt.done()
	hitLat := int64(cache.Config{}.Defaults().HitLatency)
	if missLat < hitLat {
		missLat = hitLat
	}
	port := &fixedPort{hitLat: hitLat, missLat: missLat, loadMiss: co.loadMiss, next: make([]int, len(b.profiles))}
	cores := make([]*cpu.Core, len(b.profiles))
	for i := range cores {
		cores[i] = cpu.New(i, in.opts.CPU, &trace.SliceReader{Records: co.records[i], Loop: true}, port, 0)
	}
	for k := 0; k < b.sz.probeBatches; k++ {
		bt.time("Core.Tick", func() int64 {
			for n := 0; n < b.sz.cpuCycles; n++ {
				port.hits.fire(port.now)
				port.misses.fire(port.now)
				for _, c := range cores {
					c.Tick()
				}
				port.now++
			}
			return int64(b.sz.cpuCycles * len(cores))
		})
	}
	return median(bt.nsPerCall)
}

// commandLog records the device's command stream (dram.Config.Listener).
type commandLog struct{ cmds []loggedCommand }

type loggedCommand struct {
	cmd   dram.Command
	cycle int64
}

func (l *commandLog) OnCommand(cmd dram.Command, cycle int64) {
	l.cmds = append(l.cmds, loggedCommand{cmd, cycle})
}

// memOut is what the mem probe measured and captured.
type memOut struct {
	dropped      bool
	nsPerTick    float64
	nsPerRequest float64
	rejectRatio  float64
	log          *commandLog
	dev          *dram.Device
}

// probeMem times mem.Controller over a fresh dram.Device, fed the cache
// probe's request stream at the end-to-end run's requests per bus cycle
// through CanEnqueue and EnqueueDecoded (with the hot-page mapping's
// decoding, as the simulator enqueues), one Tick per bus cycle. Like the
// cores that issue them, reads in flight are capped at the cores' load
// MSHRs, so the queues hold what they hold in the end-to-end run; writes are
// posted. A request the controller refuses is retried on the next cycle.
func (b *bench) probeMem(tr *tracer, in *simInputs, stream []memReq, rate float64) (memOut, error) {
	out := memOut{log: &commandLog{}}
	cfg := in.devCfg
	cfg.Listener = out.log
	out.dev = dram.NewDevice(cfg)
	ctrl, err := mem.NewController(out.dev, mem.Config{Refresh: in.refresh})
	if err != nil {
		return out, fmt.Errorf("mem.NewController: %w", err)
	}
	tk, ok := any(ctrl).(ticker)
	if !ok {
		out.dropped = true
		return out, nil
	}
	bt := newBatchTimer(tr, "mem", "probe.mem")
	defer bt.done()
	var (
		acc                 float64
		next, ticks         int
		enqueued, completed int
		readsOut            int
		attempts, rejects   int
		maxReads            = len(b.profiles) * in.opts.CPU.MSHRs
		batch               = max(1, b.sz.memMaxTicks/20)
		drained             = false
	)
	writeDone := func(int64) { completed++ }
	readDone := func(int64) { completed++; readsOut-- }
	for !drained && ticks < b.sz.memMaxTicks {
		bt.time("Controller.Tick", func() int64 {
			n := 0
			for ; n < batch && ticks < b.sz.memMaxTicks; n++ {
				// At most one cycle's worth of credit carries over, so a
				// stalled stream resumes at the rate instead of in a burst.
				acc = min(acc+rate, 1+rate)
				for acc >= 1 && next < len(stream) {
					r := stream[next]
					if !r.write && readsOut >= maxReads {
						break
					}
					attempts++
					if !ctrl.CanEnqueue(r.write) {
						rejects++
						break
					}
					done := writeDone
					if !r.write {
						done = readDone
						readsOut++
					}
					_, da := in.mapper.TranslateChannel(r.line)
					ctrl.EnqueueDecoded(&mem.Request{Addr: r.line, Write: r.write, OnComplete: done}, da)
					enqueued++
					next++
					acc--
				}
				tk.Tick()
				ticks++
				if next == len(stream) && completed == enqueued && ticks >= b.sz.memMinTicks {
					drained = true
					n++
					break
				}
			}
			return int64(n)
		})
	}
	if drained && ctrl.Pending() != 0 {
		return out, fmt.Errorf("mem probe: %d requests still queued after every one completed", ctrl.Pending())
	}
	out.nsPerTick = median(bt.nsPerCall)
	if completed > 0 {
		out.nsPerRequest = float64(bt.total.Nanoseconds()) / float64(completed)
	}
	if attempts > 0 {
		out.rejectRatio = float64(rejects) / float64(attempts)
	}
	return out, nil
}

// probeDRAM replays the mem probe's command stream on a fresh device with a
// power.Meter listening, through EarliestIssue and Issue. Every command must
// be legal at its recorded cycle, and the replay must end with the same
// command counts as the device that produced the stream.
func (b *bench) probeDRAM(tr *tracer, in *simInputs, mo memOut) (float64, error) {
	bt := newBatchTimer(tr, "dram", "probe.dram")
	defer bt.done()
	meter := power.NewMeter(power.Config{IDD: power.Default16Gb(), ClockNS: in.devCfg.ClockNS, Timings: timingNS(in.clr)})
	cfg := in.devCfg
	cfg.Listener = meter
	dev := dram.NewDevice(cfg)
	cmds := mo.log.cmds
	illegal := 0
	per := max(1, (len(cmds)+b.sz.probeBatches-1)/b.sz.probeBatches)
	for lo := 0; lo < len(cmds); lo += per {
		chunk := cmds[lo:min(lo+per, len(cmds))]
		bt.time("Device.EarliestIssue+Issue", func() int64 {
			for _, c := range chunk {
				if c.cycle > dev.Clock() {
					dev.AdvanceClock(c.cycle - dev.Clock())
				}
				if dev.EarliestIssue(c.cmd) > c.cycle {
					illegal++
					continue
				}
				dev.Issue(c.cmd)
			}
			return int64(len(chunk))
		})
	}
	if illegal > 0 {
		return 0, fmt.Errorf("dram replay: %d of %d commands were illegal at their recorded cycle", illegal, len(cmds))
	}
	if dev.CmdCounts != mo.dev.CmdCounts {
		return 0, fmt.Errorf("dram replay: command counts %v, the recorded device issued %v", dev.CmdCounts, mo.dev.CmdCounts)
	}
	if len(cmds) > 0 && !(meter.Energy(dev.Clock()).Total() > 0) {
		return 0, fmt.Errorf("dram replay: the power meter measured no energy for %d commands", len(cmds))
	}
	return median(bt.nsPerCall), nil
}

// timingNS is the per-mode nanosecond timing table sim.NewSystem gives its
// power meters.
func timingNS(clr core.Config) [dram.NumModes]dram.TimingNS {
	tab := clr.Table
	if tab == nil {
		tab = core.DefaultTable()
	}
	var out [dram.NumModes]dram.TimingNS
	out[dram.ModeDefault] = tab.Baseline
	out[dram.ModeMaxCap] = tab.MaxCap
	out[dram.ModeHighPerf] = tab.HighPerfET
	if clr.Enabled {
		if h, err := tab.HighPerfAt(clr.REFWms, clr.EarlyTermination); err == nil {
			out[dram.ModeHighPerf] = h
		}
	}
	return out
}
