package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"clrdram/internal/circuit"
	"clrdram/internal/core"
	"clrdram/internal/engine"
	"clrdram/internal/sim"
	"clrdram/internal/spice"
	"clrdram/internal/workload"
)

// bench runs one workload's operations and checks each one.
type bench struct {
	w        benchWorkload
	sz       sizes
	seed     int64
	profiles []workload.Profile
	target   uint64
	workers  int
	check    digestCheck
	// ref times the reference loop in end-to-end runs and is nil in traced
	// runs; lastRef is its latest measurement.
	ref     *hostRef
	lastRef refTimes

	attempted, failed int
	failures          []string
}

func newBench(w benchWorkload, sz sizes, seed int64) *bench {
	if seed == 0 {
		// sim.Options and spice.TableOptions both read seed 0 as their
		// default seed 1; naming it 1 here keeps the probes' inputs and the
		// digest pin in step with what the operations actually ran.
		seed = 1
	}
	b := &bench{w: w, sz: sz, seed: seed, target: w.target / sz.targetDiv, workers: runtime.NumCPU()}
	for _, name := range w.profiles {
		p, ok := workload.ByName(name)
		if !ok {
			panic("clrbench: no workload profile named " + name)
		}
		b.profiles = append(b.profiles, p)
	}
	if sz.pin && seed == defaultSeed {
		b.check.pinned = w.pinned
	}
	return b
}

// opResult is one operation's measurements and outputs.
type opResult struct {
	setup   []float64 // wall seconds of each set-up the operation made
	runCPU  float64   // process CPU seconds of System.Run or the table build
	runWall float64   // wall seconds of the same
	opWall  float64   // wall seconds of the whole operation
	work    float64   // simulated instructions (all cores) or Monte Carlo draws
	alloc   uint64    // heap bytes allocated by the operation
	live    uint64    // live heap bytes after set-up and a GC
	digest  uint64
	res     sim.Result // sim operations only
	ff      ffCounts   // sim operations only
	err     error

	// setupRef and runRef are the reference loop's times around the set-up
	// and around System.Run or the table build (end-to-end runs only).
	setupRef, runRef refTimes
}

// op runs one operation, traced when tr is non-nil, and checks its output.
// collectStats turns on the simulator's observability layer, whose report
// the modelled-result metrics come from; the simulated statistics must not
// change with it.
func (b *bench) op(tr *tracer, collectStats bool) opResult {
	b.attempted++
	t0 := time.Now()
	var r opResult
	if b.w.isSim() {
		r = b.simOp(tr, collectStats)
	} else {
		r = b.circuitOp(tr)
	}
	r.opWall = time.Since(t0).Seconds()
	if r.err == nil {
		r.err = b.check.check(r.digest)
	}
	if r.err != nil {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("operation %d: %v", b.attempted, r.err))
	}
	return r
}

func (b *bench) simOptions(collectStats bool) sim.Options {
	o := sim.DefaultOptions()
	o.Seed = b.seed
	o.TargetInstructions = b.target
	o.WarmupRecords = b.sz.warmupRecords
	o.CollectStats = collectStats
	return o
}

// simOp is one end-to-end simulation, as a user runs it: sim.NewSystem
// (profiling, page mapping, LLC warm-up) and System.Run.
func (b *bench) simOp(tr *tracer, collectStats bool) opResult {
	var r opResult
	var m0, m1, m2 runtime.MemStats
	op := tr.op()
	root := tr.begin(0, op, "bench", "op")
	defer tr.end(root, 1)
	runtime.ReadMemStats(&m0)

	sp := tr.begin(root, op, "sim", "sim.NewSystem")
	t0 := time.Now()
	sys, err := sim.NewSystem(b.profiles, core.CLR(hpFraction), b.simOptions(collectStats))
	r.setup = []float64{time.Since(t0).Seconds()}
	tr.end(sp, 1)
	if err != nil {
		r.err = fmt.Errorf("sim.NewSystem: %w", err)
		return r
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.live = m1.HeapAlloc
	r.setupRef = b.refMark()

	sp = tr.begin(root, op, "sim", "System.Run")
	c0, w0 := cpuSeconds(), time.Now()
	r.res = sys.Run()
	r.runWall, r.runCPU = time.Since(w0).Seconds(), cpuSeconds()-c0
	tr.end(sp, 1)
	runtime.ReadMemStats(&m2)
	r.alloc = m2.TotalAlloc - m0.TotalAlloc
	r.runRef = b.refMark()

	r.ff = ffCountsOf(sys)
	for _, c := range r.res.PerCore {
		r.work += float64(c.Instructions)
	}
	if r.err = checkSimResult(r.res, len(b.profiles), b.target); r.err == nil {
		r.digest, r.err = simDigest(r.res)
	}
	return r
}

// circuitOp is one Table 1 build, as a user runs it: spice.BuildTimingTable
// (three Monte Carlo campaigns and the refresh-window sweep) on an engine
// pool of one worker per CPU. Its set-up is building and compiling the
// netlists one pool worker needs before its first batch of draws, made
// several times for a steady median.
func (b *bench) circuitOp(tr *tracer) opResult {
	var r opResult
	var m0, m1, m2 runtime.MemStats
	op := tr.op()
	root := tr.begin(0, op, "bench", "op")
	defer tr.end(root, 1)
	runtime.ReadMemStats(&m0)

	p := spice.Default()
	var nets []*circuit.Batch
	for i := 0; i < b.sz.circuitSetups; i++ {
		runtime.GC()
		sp := tr.begin(root, op, "circuit", "spice.Build+circuit.CompileBatch")
		t0 := time.Now()
		bs, err := buildNetlists(p, b.seed, b.sz.batchWidth)
		r.setup = append(r.setup, time.Since(t0).Seconds())
		tr.end(sp, int64(len(bs)))
		if err != nil {
			r.err = err
			return r
		}
		nets = bs
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.live = m1.HeapAlloc
	runtime.KeepAlive(nets)
	r.setupRef = b.refMark()

	draws := 3*b.sz.circuitIters + 2
	sp := tr.begin(root, op, "spice", "spice.BuildTimingTable")
	c0, w0 := cpuSeconds(), time.Now()
	tab, err := spice.BuildTimingTable(p, spice.TableOptions{
		Iterations: b.sz.circuitIters, Seed: b.seed, Workers: b.workers,
	})
	r.runWall, r.runCPU = time.Since(w0).Seconds(), cpuSeconds()-c0
	tr.end(sp, int64(draws))
	runtime.ReadMemStats(&m2)
	r.alloc = m2.TotalAlloc - m0.TotalAlloc
	r.runRef = b.refMark()
	if err != nil {
		r.err = fmt.Errorf("spice.BuildTimingTable: %w", err)
		return r
	}
	r.work = float64(draws)
	r.digest, r.err = digestOf(tab)
	return r
}

// circuitModes are the three topologies a timing table is built from.
var circuitModes = []spice.Mode{spice.ModeBaseline, spice.ModeMaxCap, spice.ModeHighPerf}

// montecarloDraw is Monte Carlo draw i of a campaign seeded with seed, as
// spice derives it: draw 0 is nominal, every other one perturbs each
// component with a private generator.
func montecarloDraw(p spice.Params, seed int64, i int) spice.Params {
	if i == 0 {
		return p
	}
	return p.Perturb(rand.New(rand.NewSource(engine.DeriveSeed(seed, i))), 0.05)
}

// buildNetlists builds, for each topology, the two groups of k draws' netlists
// a batch extractor steps (activation and write path) and compiles each
// group into a batch.
func buildNetlists(p spice.Params, seed int64, k int) ([]*circuit.Batch, error) {
	var out []*circuit.Batch
	for _, m := range circuitModes {
		for g := 0; g < 2; g++ {
			lanes := make([]*circuit.Circuit, k)
			for i := range lanes {
				s, err := spice.Build(montecarloDraw(p, seed, g*k+i+1), m)
				if err != nil {
					return nil, fmt.Errorf("spice.Build %v: %w", m, err)
				}
				lanes[i] = s.Circuit()
			}
			bt, err := circuit.CompileBatch(lanes)
			if err != nil {
				return nil, fmt.Errorf("circuit.CompileBatch %v: %w", m, err)
			}
			out = append(out, bt)
		}
	}
	return out, nil
}

// endToEnd is the untraced measurement: operations back to back until the
// window closes, the first one left out of every median because it pays
// the process's own warm-up. The reference loop is timed before the first
// operation and then after every set-up and every run.
func (b *bench) endToEnd(ctx context.Context, window time.Duration) (*report, error) {
	deadline := time.Now().Add(window)
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	b.ref = ref
	defer func() {
		b.ref = nil
		ref.close()
	}()
	b.refMark()
	var timed []opResult
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := b.op(nil, false)
		if i > 0 && r.err == nil {
			timed = append(timed, r)
		}
		if i >= b.sz.minTimed && !time.Now().Before(deadline) {
			break
		}
	}
	rep := b.newReport(false)
	rep.endToEnd(b, timed)
	return rep, nil
}

// traced is the traced measurement: untraced and traced operations in
// alternation until the window closes (their time ratio is the tracing
// overhead), then one stats-on operation and the per-layer probes. Every
// operation goes through the same digest check, so traced, untraced and
// stats-on runs must produce identical simulated statistics.
func (b *bench) traced(ctx context.Context, window time.Duration, spansDir string) (*report, error) {
	tr := newTracer()
	deadline := time.Now().Add(window)
	b.op(nil, false) // warms the process; checked, not timed
	var plain, traced []opResult
	for i := 1; ; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Which of the pair goes first alternates, so neither side always
		// follows the other.
		for _, withTrace := range [2]bool{i%2 == 0, i%2 == 1} {
			if !withTrace {
				if r := b.op(nil, false); r.err == nil {
					plain = append(plain, r)
				}
			} else if r := b.op(tr, false); r.err == nil {
				traced = append(traced, r)
			}
		}
		if i >= b.sz.minTimed && !time.Now().Before(deadline) {
			break
		}
	}
	rep := b.newReport(true)
	if len(plain) > 0 && len(traced) > 0 {
		rep.set("bench.trace_overhead",
			median(pick(traced, func(r opResult) float64 { return r.opWall }))/
				median(pick(plain, func(r opResult) float64 { return r.opWall }))-1)
	}
	var err error
	if b.w.isSim() {
		err = b.simLayers(tr, rep, plain)
	} else {
		err = b.circuitLayers(tr, rep, plain)
	}
	if err != nil {
		rep.probeFailed(err)
	}
	if err := checkNesting(tr.spans); err != nil {
		rep.probeFailed(err)
	}
	rep.layers = layerSelfTimes(tr.spans)
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep, nil
}

// refMark times the reference loop, in an end-to-end run, and returns the
// mean of this measurement and the previous one: the reference around
// what ran between the two marks. In a traced run it does nothing.
func (b *bench) refMark() refTimes {
	if b.ref == nil {
		return refTimes{}
	}
	t := b.ref.measure()
	around := b.lastRef.mean(t)
	b.lastRef = t
	return around
}

// pick maps the successful operations to one measurement each.
func pick(rs []opResult, f func(opResult) float64) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, f(r))
	}
	return out
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
