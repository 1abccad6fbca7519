package spice

import (
	"fmt"
	"math"

	"clrdram/internal/circuit"
)

// Sample is one waveform point (Figures 7 and 8).
type Sample struct {
	T     float64 // seconds from the start of the operation sequence
	BL    float64 // SA1 bitline port
	BLB   float64 // SA1 bitline-bar port
	Cell  float64
	CellB float64 // NaN-free: 0 for single-cell topologies
}

// Recorder collects waveform samples at a fixed interval.
type Recorder struct {
	Every   float64
	Samples []Sample
	next    float64
}

// Reset clears the recorded samples (retaining the buffer) and rewinds the
// sampling clock, so one Recorder can be reused across iterations without
// reallocating its sample slice.
func (r *Recorder) Reset() {
	r.Samples = r.Samples[:0]
	r.next = 0
}

// record captures a sample if the interval elapsed.
func (r *Recorder) record(s *Subarray) {
	if r == nil {
		return
	}
	t := s.c.Time()
	if t < r.next {
		return
	}
	r.next = t + r.Every
	smp := Sample{
		T:    t,
		BL:   s.c.V(s.sa1.bl),
		BLB:  s.c.V(s.sa1.blb),
		Cell: s.c.V(s.cell),
	}
	switch s.mode {
	case ModeHighPerf, ModeTwinCell:
		smp.CellB = s.c.V(s.cellB)
	case ModeMCR:
		smp.CellB = s.c.V(s.cell2)
	}
	r.Samples = append(r.Samples, smp)
}

// InitData sets the stored data before an activation. charged selects
// whether the cell on bl holds a high level; cellV is the (possibly
// leakage-decayed) voltage of the charged cell. In high-performance mode
// the complementary cell holds the opposite level (§3.4: coupled cells
// always store opposite charge).
func (s *Subarray) InitData(charged bool, cellV float64) {
	hi, lo := cellV, 0.0
	if !charged {
		hi, lo = 0, cellV
	}
	s.c.SetV(s.cell, hi)
	switch s.mode {
	case ModeHighPerf, ModeTwinCell:
		// Complementary coupled cell (§3.4; twin-cell likewise).
		s.c.SetV(s.cellB, lo)
	case ModeMCR:
		// Clone cell holds the same data.
		s.c.SetV(s.cell2, hi)
	}
	s.expectHigh = charged
}

// ActResult holds the raw timings (seconds) extracted from one activation.
type ActResult struct {
	TSense   float64 // wordline assert → SA enable (ΔV = ΔVth, Ⓐ)
	TRCD     float64 // wordline assert → ready-to-access (Ⓑ)
	TRASFull float64 // wordline assert → full restoration
	TRASET   float64 // wordline assert → early-termination restoration (VET)
	OK       bool    // the SA resolved to the correct polarity
}

// WrResult holds raw write-recovery timings (seconds).
type WrResult struct {
	TWRFull float64 // driver start → full restoration of the written cell
	TWRET   float64 // driver start → early-termination level
}

// Activate performs a row activation from the precharged state and extracts
// the timing events. InitData must have been called. rec (nil: none)
// samples every step.
func (s *Subarray) Activate(rec *Recorder) (ActResult, error) {
	g := s.lane(rec)
	var res [1]ActResult
	g.activate(res[:])
	return res[0], g.errs[0]
}

// Precharge closes the row from the current (activated) state and returns
// the raw tRP: the time from the precharge command until every bitline node
// of interest settles within PrechargeTol of VDD/2.
func (s *Subarray) Precharge(rec *Recorder) (float64, error) {
	g := s.lane(rec)
	var rp [1]float64
	g.precharge(rp[:])
	return rp[0], g.errs[0]
}

// Write flips the open row's data through the write driver (which always
// drives bl high) and measures write recovery. The caller must have
// activated with the cell initially discharged so the write is the
// worst-case charging transition.
func (s *Subarray) Write(rec *Recorder) (WrResult, error) {
	g := s.lane(rec)
	var res [1]WrResult
	g.write(res[:])
	return res[0], g.errs[0]
}

// lane returns a one-lane group stepping s in place. Recording checks the
// stop predicates every step, so the waveform's phase boundaries are exact.
func (s *Subarray) lane(rec *Recorder) *group {
	stride := s.p.CheckStride
	if rec != nil {
		stride = 1
	}
	return newGroup(&oneLane{s: s, rec: rec}, []*Subarray{s}, make([]error, 1), stride)
}

// lanes is the lane set the extraction phases step: K subarray circuits
// advanced together, each on its own clock. *circuit.Batch is the K>1 form
// and oneLane the K=1 one. Gather resyncs the set after a drive change on
// the lane circuits and Scatter writes the stepped state back before one.
type lanes interface {
	StepN(dt float64, n int)
	V(lane int, n circuit.Node) float64
	Time(lane int) float64
	Park(lane int)
	Unpark(lane int)
	Err(lane int) error
	Gather() error
	Scatter()
}

// oneLane steps one subarray's circuit in place, through the compiled
// kernel (or the interpreted loop when Params.Interpreted pins it). StepN
// runs a whole stop-check chunk per call with no per-step dispatch, and
// samples every step into rec when one is attached. The state never leaves
// the circuit, so Gather and Scatter have nothing to do.
type oneLane struct {
	s      *Subarray
	rec    *Recorder
	err    error
	parked bool
}

func (o *oneLane) StepN(dt float64, n int) {
	if o.parked {
		return
	}
	for ; n > 0; n-- {
		if err := o.s.c.Step(dt); err != nil {
			o.err, o.parked = err, true
			return
		}
		o.rec.record(o.s)
	}
}

func (o *oneLane) V(_ int, n circuit.Node) float64 { return o.s.c.V(n) }
func (o *oneLane) Time(int) float64                { return o.s.c.Time() }
func (o *oneLane) Park(int)                        { o.parked = true }
func (o *oneLane) Unpark(int)                      { o.parked = o.err != nil }
func (o *oneLane) Err(int) error                   { return o.err }
func (o *oneLane) Gather() error                   { return nil }
func (o *oneLane) Scatter()                        {}

// group is one operation group: the subarrays of K draws, lane i stepping
// subs[i]. errs is per lane and outlives the group's operations: a failed
// lane never steps again. wrap, when set, is the format ("…%v…%w", mode
// and error) that gives a phase error its operation context.
type group struct {
	l      lanes
	subs   []*Subarray
	errs   []error
	stride int
	wrap   string

	skip     []bool // lanes sitting out the rest of the current operation
	done     []bool // lanes that crossed the current phase's predicate
	deadline []float64
}

func newGroup(l lanes, subs []*Subarray, errs []error, stride int) *group {
	k := len(subs)
	return &group{l: l, subs: subs, errs: errs, stride: max(stride, 1),
		skip: make([]bool, k), done: make([]bool, k), deadline: make([]float64, k)}
}

// live reports whether lane i takes part in the current operation.
func (g *group) live(i int) bool { return g.errs[i] == nil && !g.skip[i] }

// fail records lane i's error in phase name and parks the lane.
func (g *group) fail(i int, name string, err error) {
	err = fmt.Errorf("%s: %w", name, err)
	if g.wrap != "" {
		err = fmt.Errorf(g.wrap, g.subs[i].mode, err)
	}
	g.errs[i] = err
	g.l.Park(i)
}

// gather resyncs the lanes after a drive change. A failure means the lanes
// are no longer structurally identical; it fails every lane.
func (g *group) gather() bool {
	err := g.l.Gather()
	if err == nil {
		return true
	}
	for i := range g.errs {
		if g.errs[i] == nil {
			g.errs[i] = err
		}
	}
	return false
}

// phase steps every live lane until cond(i) holds, the lane fails, or
// MaxTime passes from phase entry; at[i] receives the crossing time. The
// deadline is checked before every CheckStride-step chunk and cond after
// it: every predicate is a monotone threshold crossing, so the reported
// time overshoots the true one by at most (CheckStride−1)·Dt (DESIGN.md
// §10). A lane that crosses is parked with its state and clock frozen.
func (g *group) phase(name string, at []float64, cond func(i int) bool) {
	n := 0
	for i, s := range g.subs {
		g.done[i] = false
		if !g.live(i) {
			g.l.Park(i)
			continue
		}
		g.l.Unpark(i)
		g.deadline[i] = g.l.Time(i) + s.p.MaxTime
		n++
	}
	running := func(i int) bool { return g.live(i) && !g.done[i] }
	for n > 0 {
		for i, s := range g.subs {
			if running(i) && g.l.Time(i) >= g.deadline[i] {
				g.fail(i, name, fmt.Errorf("spice: condition not reached within %v s (mode %v)", s.p.MaxTime, s.mode))
				n--
			}
		}
		if n == 0 {
			return
		}
		g.l.StepN(g.subs[0].p.Dt, g.stride)
		for i := range g.subs {
			if !running(i) {
				continue
			}
			if err := g.l.Err(i); err != nil {
				g.fail(i, name, err) // diverged mid-chunk
				n--
			} else if cond(i) {
				at[i] = g.l.Time(i)
				g.done[i] = true
				g.l.Park(i)
				n--
			}
		}
	}
}

// activate opens the row on every live lane from the precharged state
// (InitData must have been called) and fills res: charge sharing until ΔV
// reaches the sense threshold, SA enable at each lane's own crossing,
// amplification to ready-to-access, then restoration to the early-
// termination and full levels. A lane whose SA resolves the wrong way
// stops after amplification with res[i].OK false and no error.
func (g *group) activate(res []ActResult) {
	k := len(g.subs)
	t0, at := make([]float64, k), make([]float64, k)
	for i, s := range g.subs {
		t0[i] = s.c.Time() + 0.5e-9
		s.c.DriveRamp(s.wl, 0, s.p.VPP, t0[i], 0.2e-9)
	}
	if !g.gather() {
		return
	}
	g.phase("charge sharing", at, func(i int) bool {
		s := g.subs[i]
		return math.Abs(g.l.V(i, s.sa1.bl)-g.l.V(i, s.sa1.blb)) >= s.p.SenseVth
	})
	// A parked lane's clock stopped at its crossing, so each lane enables
	// its SAs at its own time. Failed lanes get the same drives at their
	// frozen time, keeping the lanes structurally identical for Gather.
	g.l.Scatter()
	for i, s := range g.subs {
		if g.done[i] {
			res[i].TSense = at[i] - t0[i]
		}
		s.enableSAs(s.c.Time())
	}
	if !g.gather() {
		return
	}
	g.phase("amplification", at, func(i int) bool {
		p := &g.subs[i].p
		hi, lo := g.subs[i].ports()
		return (g.l.V(i, hi) >= p.ReadyFrac*p.VDD && g.l.V(i, lo) <= (1-p.ReadyFrac)*p.VDD) || g.wrong(i)
	})
	high, low := make([][]circuit.Node, k), make([][]circuit.Node, k)
	for i, s := range g.subs {
		if g.done[i] {
			if g.skip[i] = g.wrong(i); !g.skip[i] {
				res[i].TRCD = at[i] - t0[i]
			}
		}
		high[i], low[i] = s.restorationCells()
	}
	// Restoration: no drive change since amplification, so no Gather.
	g.phase("restoration (ET)", at, func(i int) bool { return g.restored(i, high[i], low[i], true) })
	for i := range res {
		if g.done[i] {
			res[i].TRASET = at[i] - t0[i]
		}
	}
	g.phase("restoration (full)", at, func(i int) bool { return g.restored(i, high[i], low[i], false) })
	for i := range res {
		if g.done[i] {
			res[i].TRASFull, res[i].OK = at[i]-t0[i], true
		}
	}
	clear(g.skip)
}

// precharge closes the row on every live lane and fills rp with the raw
// tRP. CLR-DRAM topologies engage the second (coupled) precharge unit
// (§7.2).
func (g *group) precharge(rp []float64) {
	k := len(g.subs)
	t0, at := make([]float64, k), make([]float64, k)
	g.l.Scatter()
	for i, s := range g.subs {
		p := &s.p
		t0[i] = s.c.Time() + 0.2e-9
		s.c.DriveRamp(s.wl, p.VPP, 0, t0[i], 0.5e-9)
		s.disableSAs(t0[i])
		s.c.DriveRamp(s.pre1, 0, p.VPP, t0[i], 0.5e-9)
		if s.mode != ModeBaseline {
			s.c.DriveRamp(s.pre2, 0, p.VPP, t0[i], 0.5e-9)
		}
	}
	if !g.gather() {
		return
	}
	g.phase("precharge", at, func(i int) bool {
		s := g.subs[i]
		end := s.p.Segments - 1
		for _, n := range [...]circuit.Node{s.sa1.bl, s.sa1.blb, s.bl[0], s.blb[0], s.bl[end], s.blb[end]} {
			if math.Abs(g.l.V(i, n)-s.p.VDD/2) > s.p.PrechargeTol {
				return false
			}
		}
		return true
	})
	for i := range rp {
		if g.done[i] {
			rp[i] = at[i] - t0[i]
		}
	}
}

// write flips the open row's data on every live lane through the write
// driver and fills res with the write-recovery timings. The driver
// switches read wrOn through their closures, so there is no drive change
// and no Gather: each lane's clock continues where its activation left it.
func (g *group) write(res []WrResult) {
	k := len(g.subs)
	t0, at := make([]float64, k), make([]float64, k)
	high, low := make([][]circuit.Node, k), make([][]circuit.Node, k)
	for i, s := range g.subs {
		s.wrOn = true
		s.expectHigh = true // the driver writes bl = 1
		t0[i] = g.l.Time(i)
		high[i], low[i] = s.restorationCells()
	}
	g.phase("write (ET)", at, func(i int) bool { return g.restored(i, high[i], low[i], true) })
	for i := range res {
		if g.done[i] {
			res[i].TWRET = at[i] - t0[i]
		}
	}
	g.phase("write (full)", at, func(i int) bool { return g.restored(i, high[i], low[i], false) })
	for i, s := range g.subs {
		if g.done[i] {
			res[i].TWRFull = at[i] - t0[i]
		}
		s.wrOn = false
	}
}

// wrong reports a sense inversion on lane i: the SA port that should stay
// low has been amplified high.
func (g *group) wrong(i int) bool {
	hi, lo := g.subs[i].ports()
	return g.l.V(i, lo)-g.l.V(i, hi) > 0.3
}

// restored evaluates lane i's restoration condition. With early
// termination the high cells only need to reach VET (§3.5); low cells
// always settle fully (discharged cells restore faster, Figure 8
// observation Ⓐ).
func (g *group) restored(i int, highCells, lowCells []circuit.Node, earlyTermination bool) bool {
	p := &g.subs[i].p
	target := p.RestoreFrac * p.VDD
	if earlyTermination {
		target = p.ETFrac * p.VDD
	}
	for _, n := range highCells {
		if g.l.V(i, n) < target {
			return false
		}
	}
	for _, n := range lowCells {
		if g.l.V(i, n) > p.EmptyFrac*p.VDD {
			return false
		}
	}
	return true
}

// ports returns the SA1 port that should resolve high and the one that
// should resolve low for the stored data.
func (s *Subarray) ports() (hi, lo circuit.Node) {
	if s.expectHigh {
		return s.sa1.bl, s.sa1.blb
	}
	return s.sa1.blb, s.sa1.bl
}

// restorationCells returns the cells that must restore high and the cells
// that must settle low, per topology and stored data.
func (s *Subarray) restorationCells() (highCells, lowCells []circuit.Node) {
	switch s.mode {
	case ModeHighPerf, ModeTwinCell:
		if s.expectHigh {
			return []circuit.Node{s.cell}, []circuit.Node{s.cellB}
		}
		return []circuit.Node{s.cellB}, []circuit.Node{s.cell}
	case ModeMCR:
		both := []circuit.Node{s.cell, s.cell2}
		if s.expectHigh {
			return both, nil
		}
		return nil, both
	default:
		if s.expectHigh {
			return []circuit.Node{s.cell}, nil
		}
		return nil, []circuit.Node{s.cell}
	}
}

// enableSAs drives the latch rails of every present SA at time t.
func (s *Subarray) enableSAs(t float64) {
	p := s.p
	vh := p.VDD / 2
	ramp := 1e-9
	s.c.DriveRamp(s.sa1.san, vh, 0, t, ramp)
	s.c.DriveRamp(s.sa1.sap, vh, p.VDD, t, ramp)
	if s.hasSA2 {
		s.c.DriveRamp(s.sa2.san, vh, 0, t, ramp)
		s.c.DriveRamp(s.sa2.sap, vh, p.VDD, t, ramp)
	}
}

// disableSAs parks the latch rails back at VDD/2 at time t.
func (s *Subarray) disableSAs(t float64) {
	p := s.p
	vh := p.VDD / 2
	ramp := 0.5e-9
	s.c.DriveRamp(s.sa1.san, s.c.V(s.sa1.san), vh, t, ramp)
	s.c.DriveRamp(s.sa1.sap, s.c.V(s.sa1.sap), vh, t, ramp)
	if s.hasSA2 {
		s.c.DriveRamp(s.sa2.san, s.c.V(s.sa2.san), vh, t, ramp)
		s.c.DriveRamp(s.sa2.sap, s.c.V(s.sa2.sap), vh, t, ramp)
	}
}
