// Package cache implements the shared last-level cache of the evaluated
// system (paper Table 2): 8 MiB, 8-way set associative, 64-byte lines, LRU
// replacement, write-back/write-allocate, with MSHR-style miss merging.
//
// The cache is a passive structure: the system simulator (package sim)
// drives it and forwards misses/writebacks to the memory controller.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Config describes the cache geometry and behaviour.
type Config struct {
	SizeBytes  int // total capacity, default 8 MiB
	Ways       int // associativity, default 8
	LineBytes  int // default 64
	HitLatency int // CPU cycles from access to data for a hit, default 30
	MSHRs      int // outstanding distinct line misses, default 64
}

// Defaults fills zero fields with the paper's Table 2 configuration.
func (c Config) Defaults() Config {
	if c.SizeBytes == 0 {
		c.SizeBytes = 8 << 20
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.HitLatency == 0 {
		c.HitLatency = 30
	}
	if c.MSHRs == 0 {
		c.MSHRs = 64
	}
	return c
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a positive power of two", sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a power of two", c.LineBytes)
	}
	if sets*c.LineBytes < 2 {
		// A tag then spans all 64 address bits, leaving none for the
		// dirty bit packed beside it (line.key).
		return fmt.Errorf("cache: one set of 1-byte lines leaves no spare address bit")
	}
	return nil
}

// Outcome classifies an access.
type Outcome int

// Access outcomes.
const (
	// Hit: data present; completes after HitLatency.
	Hit Outcome = iota
	// Miss: a new miss; the caller must fetch the line from memory and call
	// Fill when it arrives.
	Miss
	// MergedMiss: the line is already being fetched; the access was merged
	// into the existing MSHR and completes when that fetch fills.
	MergedMiss
	// Rejected: no MSHR available; the caller must retry later.
	Rejected
)

// String names the outcome.
func (o Outcome) String() string {
	return [...]string{"hit", "miss", "merged-miss", "rejected"}[o]
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64 // distinct line fetches (MSHR allocations)
	Merged     uint64
	Rejected   uint64
	Writebacks uint64
}

// line is one way of a set: key holds tag<<1 | dirty (Validate leaves the
// tag at most 63 bits), used the LRU timestamp of the last access, 0 for an
// invalid way (the clock is ≥ 1 at every access).
type line struct {
	key  uint64
	used uint64
}

// lineDirty is the dirty bit of line.key.
const lineDirty = 1

type mshr struct {
	lineAddr uint64
	waiters  []func()
	dirty    bool // a store merged into this miss: mark dirty on fill
}

// Cache is the LLC model.
type Cache struct {
	cfg      Config
	lines    []line // set s holds lines[s*Ways : (s+1)*Ways]
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64
	mshrs    map[uint64]*mshr
	free     []*mshr // MSHRs released by Fill, reused by later misses
	st       Stats
}

// New builds a cache; it panics on invalid configuration.
func New(cfg Config) *Cache {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Ways),
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		mshrs:    make(map[uint64]*mshr),
	}
}

// Config returns the (defaulted) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.st }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *Cache) locate(lineAddr uint64) (set uint64, tag uint64) {
	idx := lineAddr >> c.lineBits
	return idx & c.setMask, idx >> c.setBits
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	ways := c.cfg.Ways
	return c.lines[int(s)*ways : (int(s)+1)*ways]
}

// InflightMisses returns the number of allocated MSHRs.
func (c *Cache) InflightMisses() int { return len(c.mshrs) }

// Access looks up addr. For Miss the caller must fetch c.LineAddr(addr) from
// memory and call Fill when the data returns; onFill (if non-nil) is
// remembered and invoked at Fill time for both Miss and MergedMiss. For Hit
// the data is available after HitLatency CPU cycles (the caller schedules
// that delay). write marks the line dirty (write-allocate on miss).
func (c *Cache) Access(addr uint64, write bool, onFill func()) Outcome {
	c.tick++
	lineAddr := c.LineAddr(addr)
	set, tag := c.locate(lineAddr)
	ways := c.set(set)
	for i := range ways {
		ln := &ways[i]
		if ln.key>>1 == tag && ln.used != 0 {
			ln.used = c.tick
			if write {
				ln.key |= lineDirty
			}
			c.st.Hits++
			return Hit
		}
	}
	if m, ok := c.mshrs[lineAddr]; ok {
		if onFill != nil {
			m.waiters = append(m.waiters, onFill)
		}
		if write {
			m.dirty = true
		}
		c.st.Merged++
		return MergedMiss
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.st.Rejected++
		return Rejected
	}
	var m *mshr
	if n := len(c.free); n > 0 {
		m = c.free[n-1]
		c.free = c.free[:n-1]
		m.lineAddr, m.dirty = lineAddr, write
	} else {
		m = &mshr{lineAddr: lineAddr, dirty: write}
	}
	if onFill != nil {
		m.waiters = append(m.waiters, onFill)
	}
	c.mshrs[lineAddr] = m
	c.st.Misses++
	return Miss
}

// Fill installs a fetched line, runs all merged waiters, and returns the
// evicted victim's line address if it was dirty (the caller must write it
// back to memory). ok=false means no victim writeback is needed.
func (c *Cache) Fill(lineAddr uint64) (victim uint64, needsWriteback bool) {
	m, okm := c.mshrs[lineAddr]
	if !okm {
		panic(fmt.Sprintf("cache: Fill(%#x) without a matching MSHR", lineAddr))
	}
	delete(c.mshrs, lineAddr)

	set, tag := c.locate(lineAddr)
	// Choose victim: the first invalid way (used 0), else the first least
	// recently used one.
	ways := c.set(set)
	vi := 0
	for i := 1; i < len(ways) && ways[vi].used != 0; i++ {
		if ways[i].used < ways[vi].used {
			vi = i
		}
	}
	v := &ways[vi]
	if v.used != 0 && v.key&lineDirty != 0 {
		needsWriteback = true
		victim = c.reconstruct(set, v.key>>1)
		c.st.Writebacks++
	}
	c.tick++
	key := tag << 1
	if m.dirty {
		key |= lineDirty
	}
	*v = line{key: key, used: c.tick}
	for _, w := range m.waiters {
		w()
	}
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.free = append(c.free, m)
	return victim, needsWriteback
}

// reconstruct rebuilds a line address from set index and tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	idx := tag<<c.setBits | set
	return idx << c.lineBits
}

// Clone returns an independent deep copy of the cache: same configuration,
// line array, LRU clock, and statistics, sharing no mutable state with the
// original (the clone starts with an empty MSHR free list). It exists for
// checkpoint-and-fork warmup (sim's warmState.fork), which warms the LLC
// once per sweep row and forks it into every configuration of the row — so
// the statistics travel too (warmup hits and misses are part of a run's
// reported LLC counters). Cloning with misses in flight panics: an MSHR's
// waiters are closures over the original system.
func (c *Cache) Clone() *Cache {
	if len(c.mshrs) != 0 {
		panic(fmt.Sprintf("cache: Clone with %d misses in flight", len(c.mshrs)))
	}
	nc := *c
	nc.lines = slices.Clone(c.lines)
	nc.mshrs = make(map[uint64]*mshr)
	nc.free = nil
	return &nc
}

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(c.LineAddr(addr))
	for _, ln := range c.set(set) {
		if ln.key>>1 == tag && ln.used != 0 {
			return true
		}
	}
	return false
}
