// Package cpu implements the trace-driven processor core model of the
// evaluated system (paper Table 2): 4 GHz, 4-wide issue, a 128-entry
// instruction window, and 8 MSHRs per core — the same simple out-of-order
// front end Ramulator's CPU-trace mode uses.
//
// The model issues up to IssueWidth instructions per cycle into a reorder
// window and retires up to RetireWidth per cycle in order. Non-memory
// instructions complete immediately; loads complete when the memory system
// calls back; stores are posted (they retire immediately but still generate
// memory traffic). Memory-level parallelism, MSHR stalls and window stalls —
// the phenomena that make workloads latency-sensitive — all emerge from this
// structure.
package cpu

import (
	"fmt"
	"io"
	"math"

	"clrdram/internal/stats"
	"clrdram/internal/trace"
)

// Config describes one core.
type Config struct {
	IssueWidth  int // instructions issued per cycle, default 4
	RetireWidth int // instructions retired per cycle, default 4
	WindowSize  int // reorder window entries, default 128
	MSHRs       int // outstanding load misses, default 8
}

// Defaults fills zero fields with the paper's Table 2 values.
func (c Config) Defaults() Config {
	if c.IssueWidth == 0 {
		c.IssueWidth = 4
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = 4
	}
	if c.WindowSize == 0 {
		c.WindowSize = 128
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	return c
}

// MemPort is the memory system seen by a core. The system simulator
// implements it over the LLC and memory controller.
type MemPort interface {
	// Load starts a load of addr for the given core. It returns false if
	// the request cannot be accepted this cycle (MSHR/queue backpressure);
	// the core will retry. On acceptance, onDone is called when the data is
	// available to the core.
	Load(core int, addr uint64, onDone func()) bool
	// Store submits a posted store. It returns false on backpressure.
	Store(core int, addr uint64) bool
}

// notReady marks a window entry whose load has not returned.
const notReady = math.MaxInt64

// Core is one trace-driven core.
type Core struct {
	id   int
	cfg  Config
	rd   trace.Reader
	port MemPort

	window []int64 // ready-at cycle per in-flight instruction (ring)
	head   int
	tail   int
	count  int

	// currently expanding trace record
	bubblesLeft int
	memPending  bool
	memRec      trace.Record
	eof         bool

	loadsInFlight int
	// Window slots and absolute instruction sequence numbers of in-flight
	// loads (parallel slices, ≤ MSHRs entries). An entry's sequence number
	// is retired + count at insertion time; the head entry's is retired.
	// They let the fast-forward path compute how many entries from the head
	// are ready without scanning the window (see FFState).
	loadSlots []int
	loadSeqs  []uint64
	// loadDone[slot] is the completion callback of the load occupying that
	// window slot, bound once at construction so issuing a load allocates
	// nothing.
	loadDone []func()

	cycle       int64
	retired     uint64
	memAccesses uint64
	llcMisses   uint64 // maintained by the sim layer via CountLLCMiss

	// Stall and memory-level-parallelism accounting (see stats.CoreStats
	// for the derived metrics). All are plain increments on paths already
	// taken, so they stay on unconditionally.
	retireStalls uint64 // cycles retirement made no progress (head not ready)
	windowFulls  uint64 // cycles issue stopped on a full reorder window
	mshrStalls   uint64 // cycles issue stopped on the MSHR limit
	memBlocked   uint64 // cycles issue stopped on memory-system backpressure
	mlpSum       uint64 // Σ in-flight loads over cycles with ≥1 in flight
	mlpCycles    uint64 // cycles with ≥1 load in flight

	// Target handling: Finished() becomes true once retired ≥ target;
	// FinishedStats freezes at that moment.
	target        uint64
	finishedStats stats.CoreStats
	finished      bool
}

// New creates a core reading from rd and accessing memory through port,
// retiring at least target instructions (0 means run until trace EOF).
func New(id int, cfg Config, rd trace.Reader, port MemPort, target uint64) *Core {
	cfg = cfg.Defaults()
	c := &Core{
		id:        id,
		cfg:       cfg,
		rd:        rd,
		port:      port,
		window:    make([]int64, cfg.WindowSize),
		loadSlots: make([]int, 0, cfg.MSHRs),
		loadSeqs:  make([]uint64, 0, cfg.MSHRs),
		loadDone:  make([]func(), cfg.WindowSize),
		target:    target,
	}
	for slot := range c.loadDone {
		c.loadDone[slot] = func() { c.completeLoad(slot) }
	}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Cycle returns the core's local clock.
func (c *Core) Cycle() int64 { return c.cycle }

// Retired returns the retired instruction count.
func (c *Core) Retired() uint64 { return c.retired }

// Finished reports whether the core has retired its target (or hit EOF).
func (c *Core) Finished() bool { return c.finished }

// Stats returns the core's counters frozen at the point it finished (or
// current values if still running). LLCMisses is maintained by the system
// simulator via CountLLCMiss.
func (c *Core) Stats() stats.CoreStats {
	if c.finished {
		return c.finishedStats
	}
	return c.snapshot()
}

func (c *Core) snapshot() stats.CoreStats {
	return stats.CoreStats{
		Instructions:      c.retired,
		MemAccesses:       c.memAccesses,
		LLCMisses:         c.llcMisses,
		Cycles:            uint64(c.cycle),
		RetireStallCycles: c.retireStalls,
		WindowFullCycles:  c.windowFulls,
		MSHRStallCycles:   c.mshrStalls,
		MemBlockedCycles:  c.memBlocked,
		MLPSum:            c.mlpSum,
		MLPCycles:         c.mlpCycles,
	}
}

// CountLLCMiss increments the core's LLC miss counter; the system simulator
// calls it when a load from this core misses the LLC.
func (c *Core) CountLLCMiss() { c.llcMisses++ }

// Tick advances the core one CPU cycle: retire, then issue.
func (c *Core) Tick() {
	if c.loadsInFlight > 0 {
		c.mlpSum += uint64(c.loadsInFlight)
		c.mlpCycles++
	}
	c.retire()
	c.issue()
	c.cycle++
	if !c.finished {
		if (c.target > 0 && c.retired >= c.target) || (c.eof && c.count == 0 && !c.memPending) {
			c.finished = true
			c.finishedStats = c.snapshot()
		}
	}
}

// retire removes up to RetireWidth completed instructions from the window
// head, in order.
func (c *Core) retire() {
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		if c.window[c.head] > c.cycle {
			if n == 0 {
				c.retireStalls++ // full stall: nothing retired this cycle
			}
			return // head not ready: in-order retirement stalls
		}
		if c.head++; c.head == len(c.window) {
			c.head = 0
		}
		c.count--
		c.retired++
	}
}

// issue inserts up to IssueWidth instructions into the window.
func (c *Core) issue() {
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.count >= len(c.window) {
			if n == 0 {
				c.windowFulls++
			}
			return // window full
		}
		if c.bubblesLeft == 0 && !c.memPending {
			if c.eof {
				return
			}
			rec, err := c.rd.Next()
			if err == io.EOF {
				c.eof = true
				return
			}
			if err != nil {
				panic(fmt.Sprintf("cpu: trace read error: %v", err))
			}
			c.bubblesLeft = rec.Bubble
			c.memPending = true
			c.memRec = rec
		}
		if c.bubblesLeft > 0 {
			// Non-memory instruction: ready immediately (retires next
			// cycle at the earliest, in order).
			c.insert(c.cycle)
			c.bubblesLeft--
			continue
		}
		// Memory instruction.
		rec := c.memRec
		if rec.Write {
			if !c.port.Store(c.id, rec.Addr) {
				if n == 0 {
					c.memBlocked++
				}
				return // backpressure: retry next cycle
			}
			c.memAccesses++
			c.insert(c.cycle) // stores are posted: retire immediately
			c.memPending = false
			continue
		}
		if c.loadsInFlight >= c.cfg.MSHRs {
			if n == 0 {
				c.mshrStalls++
			}
			return // MSHR stall
		}
		slot := c.tail
		if !c.port.Load(c.id, rec.Addr, c.loadDone[slot]) {
			if n == 0 {
				c.memBlocked++
			}
			return // memory system backpressure
		}
		c.loadSlots = append(c.loadSlots, slot)
		c.loadSeqs = append(c.loadSeqs, c.retired+uint64(c.count))
		c.loadsInFlight++
		c.memAccesses++
		c.insert(notReady)
		c.memPending = false
	}
}

// insert appends one window entry with the given ready cycle.
func (c *Core) insert(readyAt int64) {
	c.window[c.tail] = readyAt
	if c.tail++; c.tail == len(c.window) {
		c.tail = 0
	}
	c.count++
}

// completeLoad marks the load occupying the given window slot as returned.
func (c *Core) completeLoad(slot int) {
	c.window[slot] = c.cycle
	c.loadsInFlight--
	for i, s := range c.loadSlots {
		if s == slot {
			last := len(c.loadSlots) - 1
			c.loadSlots[i] = c.loadSlots[last]
			c.loadSeqs[i] = c.loadSeqs[last]
			c.loadSlots = c.loadSlots[:last]
			c.loadSeqs = c.loadSeqs[:last]
			break
		}
	}
}
