package circuit

import (
	"fmt"
	"unsafe"
)

// The batched stepping kernel (DESIGN.md §12). CompileBatch flattens K
// structurally identical circuits ("lanes" — in practice, K Monte Carlo
// parameter draws of the same netlist) into one draw-major
// structure-of-arrays kernel: the run tape, device node indices and drive
// plan membership are shared across lanes (verified identical at gather
// time), while every per-lane quantity — device values, node voltages,
// currents, capacitances, drive constants/ramps and the derived clock — is
// laid out with the K lane values of each table row contiguous, so
// Batch.Step walks the tape once per timestep with tight K-wide inner
// loops over each device table.
//
// Lanes are independent circuits: no float64 operation ever combines
// values from two lanes, and within a lane Batch.Step replays the compiled
// kernel's expressions verbatim in the same order. Batched stepping is
// therefore bit-identical to stepping each lane alone through the
// compiled (and hence the interpreted) path at EVERY batch width, not
// just width 1 — there is no cross-lane summation to reassociate. The
// identity is enforced stepwise by TestBatchIdentityStepwise and
// end-to-end by the spice ckdiff suite (make ckdiff).
//
// Early stop is handled by lane compaction rather than masking: live
// lanes occupy the leading physical columns [0, active) of every table,
// and Park swaps a finishing lane's column with the last live one, so the
// inner loops never test a mask and never touch frozen state. A parked
// lane's voltages and clock are exactly as it left them; Unpark resumes
// it. The caller (spice.BatchExtractor) parks each draw as its stop
// condition fires and resumes the survivors for the next phase.

// Batch steps K structurally identical circuits in lockstep through one
// draw-major struct-of-arrays kernel. Build one with CompileBatch; after
// any structural or drive mutation of a lane circuit (or a Reparam-style
// device rebind), call Gather to resync before stepping again. Lanes are
// addressed by their index in the CompileBatch slice ("logical" lanes);
// internal column compaction is invisible to callers.
type Batch struct {
	lanes []*Circuit
	k     int
	nn    int // nodes per lane
	maxV  float64
	names []string // node names (shared), for divergence diagnostics

	// Shared structure, copied from lane 0's compiled kernel and verified
	// identical across lanes at gather time.
	runs                        []krun
	resA, resB                  []int32
	nD, nG, nS                  []int32
	pD, pG, pS                  []int32
	skN                         []int32
	swA, swB                    []int32
	constN, rampN, varN, floatN []int32

	// Premultiplied row offsets (node index × k), derived from the tables
	// above at gather time so the hot loop does no index arithmetic.
	resAk, resBk     []int
	nDk, nGk, nSk    []int
	pDk, pGk, pSk    []int
	skNk, swAk, swBk []int

	// Per-lane values, draw-major: table row j stores its K lane values
	// contiguously at [j*k : (j+1)*k], indexed by physical column.
	resG     []float64
	nK, nVt  []float64
	pK, pVt  []float64
	skI      []float64
	swG      []float64
	swOn     []func() bool
	swBit    []bool
	constV   []float64
	rampSpcs []rampSpec
	rampDone []bool // per ramp row: every live lane is past t0+rise (see Step)
	varW     []Waveform

	// Per-lane per-node dynamic state, draw-major like the value tables.
	v, cur, capF []float64

	// stamped[n*k] is set by stampN when any lane wrote current into node
	// n's row this step, read by the integrate loop (an unmarked row is
	// all-zero — every lane would take the zero-current skip — so
	// integration jumps whole rows without loading them), and reset by the
	// next Step's clear pass, which zeroes exactly the flagged rows. In a
	// DRAM netlist most cell nodes sit behind off access transistors and
	// receive no stamp, which makes this the difference between touching
	// every (node, lane) pair each step and touching only the active part
	// of the array. Only the row-base slots (multiples of k) are used.
	stamped []bool

	// Per-lane clocks and flags, indexed by physical column.
	t, t0  []float64
	nsteps []int64
	lastDt []float64
	vdirty []bool
	ndirty int // count of set vdirty flags, so Step can skip the scan

	// Lane permutation: Park compacts live columns to [0, active).
	phys, logi []int
	active     int

	errs []error // per logical lane; set once on divergence
}

// CompileBatch builds a batched kernel over the given lane circuits and
// gathers their current state. All lanes must be structurally identical —
// same node count, same devices of the supported kinds in the same order,
// same drive plan shape (which nodes are DC, ramp, closure-driven or
// floating) — which holds whenever they were built by the same code path
// with the same topology; only component values, voltages and drive
// parameters may differ per lane. Devices of foreign types (the compiled
// kernel's interface-dispatch escape) are not batchable and are rejected.
func CompileBatch(lanes []*Circuit) (*Batch, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("circuit: batch needs at least one lane")
	}
	b := &Batch{lanes: append([]*Circuit(nil), lanes...), k: len(lanes)}
	b.t = make([]float64, b.k)
	b.t0 = make([]float64, b.k)
	b.nsteps = make([]int64, b.k)
	b.lastDt = make([]float64, b.k)
	b.vdirty = make([]bool, b.k)
	b.phys = make([]int, b.k)
	b.logi = make([]int, b.k)
	b.errs = make([]error, b.k)
	if err := b.Gather(); err != nil {
		return nil, err
	}
	return b, nil
}

// K returns the batch width (the number of lanes).
func (b *Batch) K() int { return b.k }

// Active returns the number of lanes currently being stepped.
func (b *Batch) Active() int { return b.active }

// Err returns the divergence error recorded for a lane, if any. A lane
// that diverged is parked automatically and stays parked.
func (b *Batch) Err(lane int) error { return b.errs[lane] }

// ClearErrors forgets all recorded lane errors (it does not unpark
// anything). Callers reusing a Batch across extractions clear errors
// before re-gathering fresh lane state.
func (b *Batch) ClearErrors() {
	for i := range b.errs {
		b.errs[i] = nil
	}
}

// V returns node n's voltage in the given lane.
func (b *Batch) V(lane int, n Node) float64 { return b.v[int(n)*b.k+b.phys[lane]] }

// Time returns a lane's simulation time in seconds. A parked lane's clock
// is frozen where it stopped.
func (b *Batch) Time(lane int) float64 { return b.t[b.phys[lane]] }

// Park freezes a lane: it keeps its state and clock but is no longer
// stepped. Parking compacts the live columns, so the K-wide inner loops
// shrink as draws finish. Parking a parked lane is a no-op.
func (b *Batch) Park(lane int) {
	p := b.phys[lane]
	if p >= b.active {
		return
	}
	b.swapCols(p, b.active-1)
	b.active--
}

// Unpark resumes a parked lane from its frozen state. Lanes with a
// recorded divergence error stay parked. Unparking a live lane is a
// no-op.
func (b *Batch) Unpark(lane int) {
	if b.errs[lane] != nil {
		return
	}
	p := b.phys[lane]
	if p < b.active {
		return
	}
	b.swapCols(p, b.active)
	b.active++
	// The resumed lane's clock may trail the live set, so settled-ramp
	// rows may no longer be settled for every live lane.
	clear(b.rampDone)
	// Its frozen current column is stale, and the flag-gated clear in Step
	// only touches rows stamped last step — zero it here so the column
	// rejoins exactly as the every-step clear would have left it.
	q, k := b.active-1, b.k
	for n := 0; n < b.nn; n++ {
		b.cur[n*k+q] = 0
	}
}

// Parked reports whether a lane is currently frozen.
func (b *Batch) Parked(lane int) bool { return b.phys[lane] >= b.active }

// swapCols exchanges two physical columns across every per-lane array and
// updates the logical↔physical mapping. O(table rows + nodes).
func (b *Batch) swapCols(p, q int) {
	if p == q {
		return
	}
	k := b.k
	swapF := func(s []float64, rows int) {
		for j := 0; j < rows; j++ {
			base := j * k
			s[base+p], s[base+q] = s[base+q], s[base+p]
		}
	}
	swapF(b.resG, len(b.resA))
	swapF(b.nK, len(b.nD))
	swapF(b.nVt, len(b.nD))
	swapF(b.pK, len(b.pD))
	swapF(b.pVt, len(b.pD))
	swapF(b.skI, len(b.skN))
	swapF(b.swG, len(b.swA))
	swapF(b.constV, len(b.constN))
	swapF(b.v, b.nn)
	swapF(b.cur, b.nn)
	swapF(b.capF, b.nn)
	for j := range b.swA {
		base := j * k
		b.swOn[base+p], b.swOn[base+q] = b.swOn[base+q], b.swOn[base+p]
		b.swBit[base+p], b.swBit[base+q] = b.swBit[base+q], b.swBit[base+p]
	}
	for j := range b.rampN {
		base := j * k
		b.rampSpcs[base+p], b.rampSpcs[base+q] = b.rampSpcs[base+q], b.rampSpcs[base+p]
	}
	for j := range b.varN {
		base := j * k
		b.varW[base+p], b.varW[base+q] = b.varW[base+q], b.varW[base+p]
	}
	b.t[p], b.t[q] = b.t[q], b.t[p]
	b.t0[p], b.t0[q] = b.t0[q], b.t0[p]
	b.nsteps[p], b.nsteps[q] = b.nsteps[q], b.nsteps[p]
	b.lastDt[p], b.lastDt[q] = b.lastDt[q], b.lastDt[p]
	b.vdirty[p], b.vdirty[q] = b.vdirty[q], b.vdirty[p]
	dp, dq := b.logi[p], b.logi[q]
	b.logi[p], b.logi[q] = dq, dp
	b.phys[dp], b.phys[dq] = q, p
}

// Gather (re)builds the batched tables from the lane circuits' current
// state: it compiles each lane's kernel, verifies the shared structure,
// and copies per-lane values, voltages, capacitances, drive parameters
// and clocks into the draw-major layout. All lanes come back live (reset
// to the identity permutation); recorded errors are kept, so callers
// typically re-park failed lanes via their next phase selection. Gather
// must be called after any mutation of a lane circuit — Drive changes
// between extraction phases, Reparam-style device rebinds — and is cheap
// relative to the stepping it enables (one pass over the tables).
func (b *Batch) Gather() error {
	k := b.k
	c0 := b.lanes[0]
	c0.Compile()
	ref := c0.kern
	if len(ref.ifaceDevs) > 0 {
		return fmt.Errorf("circuit: batch cannot step foreign device types (interface dispatch); %d present", len(ref.ifaceDevs))
	}
	b.nn = len(c0.v)
	b.maxV = c0.maxV
	b.names = c0.names

	// Copy the shared structure from lane 0 (copied, not aliased, so a
	// later lane-0 recompile cannot silently mutate the batch's view).
	b.runs = append(b.runs[:0], ref.runs...)
	b.resA = append(b.resA[:0], ref.resA...)
	b.resB = append(b.resB[:0], ref.resB...)
	b.nD = append(b.nD[:0], ref.nD...)
	b.nG = append(b.nG[:0], ref.nG...)
	b.nS = append(b.nS[:0], ref.nS...)
	b.pD = append(b.pD[:0], ref.pD...)
	b.pG = append(b.pG[:0], ref.pG...)
	b.pS = append(b.pS[:0], ref.pS...)
	b.skN = append(b.skN[:0], ref.skN...)
	b.swA = append(b.swA[:0], ref.swA...)
	b.swB = append(b.swB[:0], ref.swB...)
	b.constN = append(b.constN[:0], ref.constN...)
	b.rampN = append(b.rampN[:0], ref.rampN...)
	b.varN = append(b.varN[:0], ref.varN...)
	b.floatN = append(b.floatN[:0], ref.floatN...)
	b.resAk = scaleIdx(b.resAk, ref.resA, k)
	b.resBk = scaleIdx(b.resBk, ref.resB, k)
	b.nDk = scaleIdx(b.nDk, ref.nD, k)
	b.nGk = scaleIdx(b.nGk, ref.nG, k)
	b.nSk = scaleIdx(b.nSk, ref.nS, k)
	b.pDk = scaleIdx(b.pDk, ref.pD, k)
	b.pGk = scaleIdx(b.pGk, ref.pG, k)
	b.pSk = scaleIdx(b.pSk, ref.pS, k)
	b.skNk = scaleIdx(b.skNk, ref.skN, k)
	b.swAk = scaleIdx(b.swAk, ref.swA, k)
	b.swBk = scaleIdx(b.swBk, ref.swB, k)

	b.resG = growF(b.resG, len(ref.resA)*k)
	b.nK = growF(b.nK, len(ref.nD)*k)
	b.nVt = growF(b.nVt, len(ref.nD)*k)
	b.pK = growF(b.pK, len(ref.pD)*k)
	b.pVt = growF(b.pVt, len(ref.pD)*k)
	b.skI = growF(b.skI, len(ref.skN)*k)
	b.swG = growF(b.swG, len(ref.swA)*k)
	b.constV = growF(b.constV, len(ref.constN)*k)
	b.v = growF(b.v, b.nn*k)
	b.cur = growF(b.cur, b.nn*k)
	b.capF = growF(b.capF, b.nn*k)
	b.stamped = growB(b.stamped, b.nn*k)
	clear(b.stamped)
	b.swOn = growFn(b.swOn, len(ref.swA)*k)
	b.swBit = growB(b.swBit, len(ref.swA)*k)
	b.rampSpcs = growR(b.rampSpcs, len(ref.rampN)*k)
	b.rampDone = growB(b.rampDone, len(ref.rampN))
	clear(b.rampDone)
	b.varW = growW(b.varW, len(ref.varN)*k)

	for l, c := range b.lanes {
		c.Compile()
		kk := c.kern
		if l > 0 {
			if err := b.checkStructure(c, kk); err != nil {
				return fmt.Errorf("circuit: batch lane %d: %w", l, err)
			}
		}
		spreadF(b.resG, kk.resG, k, l)
		spreadF(b.nK, kk.nK, k, l)
		spreadF(b.nVt, kk.nVt, k, l)
		spreadF(b.pK, kk.pK, k, l)
		spreadF(b.pVt, kk.pVt, k, l)
		spreadF(b.skI, kk.skI, k, l)
		spreadF(b.swG, kk.swG, k, l)
		spreadF(b.constV, kk.constV, k, l)
		for j, on := range kk.swOn {
			b.swOn[j*k+l] = on
			b.swBit[j*k+l] = false
		}
		for j, r := range kk.rampS {
			b.rampSpcs[j*k+l] = r
		}
		for j, w := range kk.varW {
			b.varW[j*k+l] = w
		}
		for n := 0; n < b.nn; n++ {
			b.v[n*k+l] = c.v[n]
			b.capF[n*k+l] = c.cap[n]
			b.cur[n*k+l] = 0
		}
		b.t[l], b.t0[l], b.nsteps[l], b.lastDt[l] = c.t, c.t0, c.nsteps, c.lastDt
		// Post-compile contract: the first step re-stores the constant
		// drives, exactly like the single-lane kernel after a recompile.
		b.vdirty[l] = true
		b.phys[l], b.logi[l] = l, l
	}
	b.ndirty = k
	b.active = k
	return nil
}

// checkStructure verifies a lane's compiled kernel matches lane 0's shape.
func (b *Batch) checkStructure(c *Circuit, kk *kernel) error {
	if len(c.v) != b.nn {
		return fmt.Errorf("node count %d != %d", len(c.v), b.nn)
	}
	if c.maxV != b.maxV {
		return fmt.Errorf("clamp window %v != %v", c.maxV, b.maxV)
	}
	if len(kk.ifaceDevs) > 0 {
		return fmt.Errorf("foreign device types are not batchable")
	}
	if len(kk.runs) != len(b.runs) {
		return fmt.Errorf("run tape length %d != %d", len(kk.runs), len(b.runs))
	}
	for i, r := range kk.runs {
		if r != b.runs[i] {
			return fmt.Errorf("run tape diverges at run %d", i)
		}
	}
	for _, pair := range [][2][]int32{
		{kk.resA, b.resA}, {kk.resB, b.resB},
		{kk.nD, b.nD}, {kk.nG, b.nG}, {kk.nS, b.nS},
		{kk.pD, b.pD}, {kk.pG, b.pG}, {kk.pS, b.pS},
		{kk.skN, b.skN}, {kk.swA, b.swA}, {kk.swB, b.swB},
		{kk.constN, b.constN}, {kk.rampN, b.rampN}, {kk.varN, b.varN}, {kk.floatN, b.floatN},
	} {
		if !eq32(pair[0], pair[1]) {
			return fmt.Errorf("device or drive-plan topology differs from lane 0")
		}
	}
	return nil
}

// Scatter writes every lane's batched state (voltages and clock) back into
// its lane circuit, so per-lane mutations between phases — Drive changes
// that read the current voltage or time — observe the stepped state. The
// inverse of the state-copying half of Gather.
func (b *Batch) Scatter() {
	k := b.k
	for d, c := range b.lanes {
		p := b.phys[d]
		for n := 0; n < b.nn; n++ {
			c.v[n] = b.v[n*k+p]
		}
		c.t, c.t0, c.nsteps, c.lastDt = b.t[p], b.t0[p], b.nsteps[p], b.lastDt[p]
		c.vdirty = true
	}
}

// Step advances every live lane by dt seconds, replaying the compiled
// kernel's float64 operations per lane over the draw-major tables (the
// bit-identity contract in this file's header — see stepCompiled before
// editing either). A lane whose voltage leaves the clamp window records
// its divergence error (retrievable via Err) and is parked; other lanes
// continue. Zero heap allocations on the non-error path.
func (b *Batch) Step(dt float64) {
	a := b.active
	if a == 0 {
		return
	}
	k := b.k
	// Resolve switch control bits once per step per lane.
	for j := range b.swA {
		base := j * k
		for l := 0; l < a; l++ {
			on := b.swOn[base+l]
			b.swBit[base+l] = on != nil && on()
		}
	}
	// Inner loops below slice each table row down to exactly its live
	// columns (len a) before the lane loop: `for l := range g` over
	// equal-length subslices lets the compiler drop every bounds check,
	// which matters more than the arithmetic in these loops. Expressions
	// and their order are stepCompiled's verbatim (bit-identity contract).
	v, cur := b.v, b.cur
	// Clear only the rows that accumulated current last step — their
	// stamped flags are still set (the integrate loop reads but does not
	// reset them). Unflagged rows are already zero, and flagged driven
	// rows are zeroed here too, so no row grows without bound.
	stamped := b.stamped
	for n := 0; n < b.nn; n++ {
		base := n * k
		if stamped[base] {
			stamped[base] = false
			clear(cur[base : base+a])
		}
	}
	b.stampN(v, cur, a)
	// Advance each live lane's derived clock (t = t0 + n·dt, rebased on a
	// dt change — per lane, since parked stretches desynchronise clocks).
	// Lanes stepped together share a step count, so the int→float convert
	// and multiply are cached across consecutive equal counts — the cached
	// product is the same float64 the per-lane expression would produce.
	// tMin (the slowest live clock) feeds the settled-ramp fast path.
	advN := int64(-1)
	var adv float64
	tMin := 0.0
	for l := 0; l < a; l++ {
		if dt != b.lastDt[l] {
			b.t0[l] = b.t[l]
			b.nsteps[l] = 0
			b.lastDt[l] = dt
		}
		b.nsteps[l]++
		if ns := b.nsteps[l]; ns != advN {
			advN, adv = ns, float64(ns)*dt
		}
		tl := b.t0[l] + adv
		b.t[l] = tl
		if l == 0 || tl < tMin {
			tMin = tl
		}
	}
	// Re-store constant drives for lanes whose voltage vector was written
	// externally (gather after a rebind or drive change). All lanes are
	// clean except on the first step after a Gather, so the per-lane scan
	// is gated on the dirty count.
	if b.ndirty > 0 {
		for l := 0; l < a; l++ {
			if !b.vdirty[l] {
				continue
			}
			for i, n := range b.constN {
				v[int(n)*k+l] = b.constV[i*k+l]
			}
			b.vdirty[l] = false
			b.ndirty--
		}
	}
	// Declared ramps, inline per lane (expression-for-expression the Step
	// closure body, per the bit-identity contract). A row where even the
	// slowest live clock has passed every lane's t0+rise is "settled":
	// each lane would take the t >= t0+rise branch and store v1 forever
	// after (live clocks are monotone within a run; Unpark resets the
	// flags), so the fast path stores the same v1 without re-deriving the
	// branch — identical bits, no per-lane time comparisons.
	for i, n := range b.rampN {
		nb, rb := int(n)*k, i*k
		rs := b.rampSpcs[rb : rb+a]
		vn := v[nb : nb+a]
		if !b.rampDone[i] {
			done := true
			for l := range rs {
				// rise <= 0 would make t <= t0 and t >= t0+rise overlap,
				// and the branch order then picks v0 — never settle those.
				if rs[l].rise <= 0 || tMin < rs[l].t0+rs[l].rise {
					done = false
					break
				}
			}
			b.rampDone[i] = done
		}
		if b.rampDone[i] {
			for l := range rs {
				vn[l] = rs[l].v1
			}
			continue
		}
		for l := range rs {
			r := &rs[l]
			t := b.t[l]
			switch {
			case t <= r.t0:
				vn[l] = r.v0
			case t >= r.t0+r.rise:
				vn[l] = r.v1
			default:
				vn[l] = r.v0 + (r.v1-r.v0)*(t-r.t0)/r.rise
			}
		}
	}
	// Remaining time-varying drives keep their closures.
	for i, n := range b.varN {
		nb, wb := int(n)*k, i*k
		for l := 0; l < a; l++ {
			v[nb+l] = b.varW[wb+l](b.t[l])
		}
	}
	// Integrate floating nodes; a diverged lane records its error and is
	// parked after the loop so live columns stay compact mid-iteration.
	// The window check is stepCompiled's, compare for compare. A lane with
	// zero accumulated current skips its update and check outright: the
	// increment would be exactly +0 (an accumulated current is never −0,
	// and dt, capF > 0), the voltage cannot be −0 (voltages only ever move
	// by such increments from real initial values), and an unchanged
	// voltage re-passes the window check it passed last step — so the
	// skip changes no bits and can miss no divergence.
	diverged := false
	maxV := b.maxV
	for _, n := range b.floatN {
		nb := int(n) * k
		if !stamped[nb] {
			continue
		}
		vn, cn, cf := v[nb:nb+a], cur[nb:nb+a], b.capF[nb:nb+a]
		for l := range vn {
			if cn[l] == 0 {
				continue
			}
			vn[l] += cn[l] * dt / cf[l]
			if !(vn[l] <= maxV && vn[l] >= -maxV) {
				diverged = b.recordDivergence(l, n, vn[l]) || diverged
			}
		}
	}
	if diverged {
		for d := 0; d < k; d++ {
			if b.errs[d] != nil {
				b.Park(d)
			}
		}
	}
}

// StepN advances every live lane n steps of dt: n calls of Step, so a
// caller stepping a whole stop-check chunk makes one call per chunk.
func (b *Batch) StepN(dt float64, n int) {
	for ; n > 0; n-- {
		b.Step(dt)
	}
}

// recordDivergence notes a clamp-window escape for the lane in physical
// column l (first error per lane wins, like the single path's immediate
// return). Outlined so the integration loops stay small and hot.
func (b *Batch) recordDivergence(l int, n int32, val float64) bool {
	d := b.logi[l]
	if b.errs[d] != nil {
		return false
	}
	b.errs[d] = fmt.Errorf("circuit: node %q diverged to %v at t=%.3g s", b.names[n], val, b.t[l])
	return true
}

// stampN walks the run tape once, accumulating device currents for the a
// live lanes of every table row — the generic-width body of Step. An off
// transistor skips its stores entirely (cheaper than storing the helper's
// +0 on netlists where most access transistors are off, which is every
// DRAM phase: one raised wordline, hundreds idle).
func (b *Batch) stampN(v, cur []float64, a int) {
	k := b.k
	stamped := b.stamped
	for _, r := range b.runs {
		switch r.kind {
		case kRes:
			for j := r.start; j < r.end; j++ {
				ab, bb, gb := b.resAk[j], b.resBk[j], int(j)*k
				g := b.resG[gb : gb+a]
				va, vb := v[ab:ab+a], v[bb:bb+a]
				ca, cb := cur[ab:ab+a], cur[bb:bb+a]
				for l := range g {
					i := g[l] * (va[l] - vb[l])
					ca[l] -= i
					cb[l] += i
				}
				stamped[ab], stamped[bb] = true, true
			}
		case kNMOS:
			for j := r.start; j < r.end; j++ {
				db, gb, sb := b.nDk[j], b.nGk[j], b.nSk[j]
				pb := int(j) * k
				kt, vt := b.nK[pb:pb+a], b.nVt[pb:pb+a]
				vd_, vg_, vs_ := v[db:db+a], v[gb:gb+a], v[sb:sb+a]
				cd, cs := cur[db:db+a], cur[sb:sb+a]
				any := false
				for l := range kt {
					vd, vg, vs := vd_[l], vg_[l], vs_[l]
					d, s := vd, vs
					flow := 1.0
					if d < s {
						d, s = s, d
						flow = -1
					}
					vov := vg - s - vt[l]
					if vov <= 0 {
						continue
					}
					vds := d - s
					var i float64
					if vds < vov {
						i = kt[l] * (vov*vds - vds*vds/2)
					} else {
						i = kt[l] / 2 * vov * vov
					}
					i *= flow * 1.0
					cd[l] -= i
					cs[l] += i
					any = true
				}
				if any {
					stamped[db], stamped[sb] = true, true
				}
			}
		case kPMOS:
			for j := r.start; j < r.end; j++ {
				db, gb, sb := b.pDk[j], b.pGk[j], b.pSk[j]
				pb := int(j) * k
				kt, vt := b.pK[pb:pb+a], b.pVt[pb:pb+a]
				vd_, vg_, vs_ := v[db:db+a], v[gb:gb+a], v[sb:sb+a]
				cd, cs := cur[db:db+a], cur[sb:sb+a]
				any := false
				for l := range kt {
					vd, vg, vs := -vd_[l], -vg_[l], -vs_[l]
					d, s := vd, vs
					flow := 1.0
					if d < s {
						d, s = s, d
						flow = -1
					}
					vov := vg - s - vt[l]
					if vov <= 0 {
						continue
					}
					vds := d - s
					var i float64
					if vds < vov {
						i = kt[l] * (vov*vds - vds*vds/2)
					} else {
						i = kt[l] / 2 * vov * vov
					}
					i *= flow * -1.0
					cd[l] -= i
					cs[l] += i
					any = true
				}
				if any {
					stamped[db], stamped[sb] = true, true
				}
			}
		case kSink:
			for j := r.start; j < r.end; j++ {
				nb, ib := b.skNk[j], int(j)*k
				si := b.skI[ib : ib+a]
				vn, cn := v[nb:nb+a], cur[nb:nb+a]
				any := false
				for l := range si {
					if vn[l] > 0 {
						cn[l] -= si[l]
						any = true
					}
				}
				if any {
					stamped[nb] = true
				}
			}
		case kSwitch:
			for j := r.start; j < r.end; j++ {
				ab, bb, gb := b.swAk[j], b.swBk[j], int(j)*k
				g, bit := b.swG[gb:gb+a], b.swBit[gb:gb+a]
				va, vb := v[ab:ab+a], v[bb:bb+a]
				ca, cb := cur[ab:ab+a], cur[bb:bb+a]
				any := false
				for l := range g {
					if !bit[l] {
						continue
					}
					i := g[l] * (va[l] - vb[l])
					ca[l] -= i
					cb[l] += i
					any = true
				}
				if any {
					stamped[ab], stamped[bb] = true, true
				}
			}
		}
	}
}

// growF returns s resized to n, reusing its backing array when possible.
// Fresh allocations are 64-byte aligned so that a table row (one cache
// line at the default width of 8 lanes) never straddles two lines; this
// also pins the kernel's memory layout across processes, which would
// otherwise vary with heap placement and add run-to-run timing noise.
// Alignment changes no bits — only where the same values live.
func growF(s []float64, n int) []float64 {
	if cap(s) >= n && (n == 0 || uintptr(unsafe.Pointer(&s[:1][0]))%64 == 0) {
		return s[:n]
	}
	raw := make([]float64, n+7)
	off := 0
	for uintptr(unsafe.Pointer(&raw[off]))%64 != 0 {
		off++
	}
	return raw[off : off+n : off+n]
}

// alignF returns s on a 64-byte-aligned backing array, copying its
// contents once if the current backing is misaligned (see growF). A
// no-op for already-aligned or empty slices, so callers can realign
// after every rebuild without paying for it in steady state.
func alignF(s []float64) []float64 {
	if len(s) == 0 || uintptr(unsafe.Pointer(&s[0]))%64 == 0 {
		return s
	}
	out := growF(nil, len(s))
	copy(out, s)
	return out
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growFn(s []func() bool, n int) []func() bool {
	if cap(s) < n {
		return make([]func() bool, n)
	}
	return s[:n]
}

func growR(s []rampSpec, n int) []rampSpec {
	if cap(s) < n {
		return make([]rampSpec, n)
	}
	return s[:n]
}

func growW(s []Waveform, n int) []Waveform {
	if cap(s) < n {
		return make([]Waveform, n)
	}
	return s[:n]
}

// scaleIdx fills dst with each node index multiplied by the batch width —
// the draw-major row base offsets the stepping loops index with directly.
func scaleIdx(dst []int, src []int32, k int) []int {
	if cap(dst) < len(src) {
		dst = make([]int, len(src))
	}
	dst = dst[:len(src)]
	for i, n := range src {
		dst[i] = int(n) * k
	}
	return dst
}

// spreadF writes one lane's row values into a draw-major table column.
func spreadF(dst, src []float64, k, lane int) {
	for j, x := range src {
		dst[j*k+lane] = x
	}
}

// eq32 reports element-wise equality of two int32 slices.
func eq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
