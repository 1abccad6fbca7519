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

// ConfigError is the typed error Config.Validate returns: Field names the
// offending Config field and Detail spells out the rejected value.
type ConfigError struct {
	Field  string
	Detail string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("cache: config field %s: %s", e.Field, e.Detail)
}

// Validate checks the geometry and the MSHR count: positive sizes, a
// power-of-two line size and set count, a spare address bit above the tag
// for the dirty bit, and at least one MSHR.
func (c Config) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &ConfigError{Field: field, Detail: fmt.Sprintf(format, args...)}
	}
	switch {
	case c.SizeBytes <= 0:
		return bad("SizeBytes", "%d, want > 0", c.SizeBytes)
	case c.Ways <= 0:
		return bad("Ways", "%d, want > 0", c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return bad("LineBytes", "%d, want a positive power of two", c.LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	switch {
	case sets <= 0 || sets&(sets-1) != 0:
		return bad("SizeBytes", "%d B in %d ways of %d B lines is %d sets, want a positive power of two",
			c.SizeBytes, c.Ways, c.LineBytes, sets)
	case sets*c.LineBytes < 2:
		// A tag then spans all 64 address bits, leaving none for the
		// dirty bit packed beside it (lineDirty).
		return bad("LineBytes", "one set of 1-byte lines leaves no spare address bit")
	case c.MSHRs < 1:
		return bad("MSHRs", "%d, want ≥ 1", c.MSHRs)
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

// A way's key packs its line's tag and dirty bit as tag<<1 | dirty
// (Validate leaves the tag at most 63 bits).
const lineDirty = 1

// mshr is the pending state of one in-flight miss.
type mshr struct {
	waiters []func()
	dirty   bool // a store merged into this miss: mark dirty on fill
}

// Cache is the LLC model. Each set keeps its valid ways first, in recency
// order, most recently used first: a hit moves its way to the front, a fill
// shifts the valid ways down one and writes the front, dropping the last
// way, the least recently used, when the set is full. No line is ever
// invalidated, so the valid ways are always a prefix and a per-set count
// marks where it ends; a key needs no valid bit, and an 8-way set of 8-byte
// keys is one 64-byte host cache line (DESIGN.md §17).
type Cache struct {
	cfg      Config
	keys     []uint64 // set s holds keys[s*Ways : (s+1)*Ways]
	valid    []int32  // valid ways of each set, a prefix of its keys
	setMask  uint64
	setBits  uint
	lineBits uint
	inflight []uint64   // line addresses of the misses in flight
	pending  []mshr     // pending[i] is the miss of inflight[i]
	spare    [][]func() // waiter lists emptied by Fill, reused by later misses
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
		keys:     make([]uint64, nsets*cfg.Ways),
		valid:    make([]int32, nsets),
		setMask:  uint64(nsets - 1),
		setBits:  uint(bits.TrailingZeros(uint(nsets))),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
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

// set returns the valid ways of set s, most recently used first.
func (c *Cache) set(s uint64) []uint64 {
	at := int(s) * c.cfg.Ways
	return c.keys[at : at+int(c.valid[s])]
}

// InflightMisses returns the number of allocated MSHRs.
func (c *Cache) InflightMisses() int { return len(c.inflight) }

// Access looks up addr. For Miss the caller must fetch c.LineAddr(addr) from
// memory and call Fill when the data returns; onFill (if non-nil) is
// remembered and invoked at Fill time for both Miss and MergedMiss. For Hit
// the data is available after HitLatency CPU cycles (the caller schedules
// that delay). write marks the line dirty (write-allocate on miss).
func (c *Cache) Access(addr uint64, write bool, onFill func()) Outcome {
	lineAddr := c.LineAddr(addr)
	set, tag := c.locate(lineAddr)
	ways := c.set(set)
	for i, key := range ways {
		if key>>1 == tag {
			if write {
				key |= lineDirty
			}
			copy(ways[1:i+1], ways[:i])
			ways[0] = key
			c.st.Hits++
			return Hit
		}
	}
	for i, la := range c.inflight {
		if la == lineAddr {
			m := &c.pending[i]
			if onFill != nil {
				m.waiters = append(m.waiters, onFill)
			}
			if write {
				m.dirty = true
			}
			c.st.Merged++
			return MergedMiss
		}
	}
	if len(c.inflight) >= c.cfg.MSHRs {
		c.st.Rejected++
		return Rejected
	}
	var waiters []func()
	if n := len(c.spare); n > 0 {
		waiters = c.spare[n-1]
		c.spare = c.spare[:n-1]
	}
	if onFill != nil {
		waiters = append(waiters, onFill)
	}
	c.inflight = append(c.inflight, lineAddr)
	c.pending = append(c.pending, mshr{waiters: waiters, dirty: write})
	c.st.Misses++
	return Miss
}

// Fill installs a fetched line, runs all merged waiters, and returns the
// evicted victim's line address if it was dirty (the caller must write it
// back to memory). ok=false means no victim writeback is needed.
func (c *Cache) Fill(lineAddr uint64) (victim uint64, needsWriteback bool) {
	i := slices.Index(c.inflight, lineAddr)
	if i < 0 {
		panic(fmt.Sprintf("cache: Fill(%#x) without a matching MSHR", lineAddr))
	}
	m := c.pending[i]
	last := len(c.inflight) - 1
	c.inflight[i], c.pending[i] = c.inflight[last], c.pending[last]
	c.inflight, c.pending = c.inflight[:last], c.pending[:last]

	set, tag := c.locate(lineAddr)
	ways := c.set(set)
	if len(ways) < c.cfg.Ways {
		c.valid[set]++
		ways = ways[:len(ways)+1]
	} else if v := ways[len(ways)-1]; v&lineDirty != 0 {
		needsWriteback = true
		victim = c.reconstruct(set, v>>1)
		c.st.Writebacks++
	}
	copy(ways[1:], ways)
	ways[0] = tag << 1
	if m.dirty {
		ways[0] |= lineDirty
	}
	for _, w := range m.waiters {
		w()
	}
	clear(m.waiters)
	c.spare = append(c.spare, m.waiters[:0])
	return victim, needsWriteback
}

// reconstruct rebuilds a line address from set index and tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	idx := tag<<c.setBits | set
	return idx << c.lineBits
}

// Clone returns an independent deep copy of the cache: same configuration,
// tag store and statistics, sharing no mutable state with the original (the
// clone starts with no spare waiter lists). It exists for
// checkpoint-and-fork warmup (sim's warmState.fork), which warms the LLC
// once per sweep row and forks it into every configuration of the row — so
// the statistics travel too (warmup hits and misses are part of a run's
// reported LLC counters). Cloning with misses in flight panics: an MSHR's
// waiters are closures over the original system.
func (c *Cache) Clone() *Cache {
	if len(c.inflight) != 0 {
		panic(fmt.Sprintf("cache: Clone with %d misses in flight", len(c.inflight)))
	}
	nc := *c
	nc.keys = slices.Clone(c.keys)
	nc.valid = slices.Clone(c.valid)
	nc.inflight, nc.pending, nc.spare = nil, nil, nil
	return &nc
}

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(c.LineAddr(addr))
	return slices.ContainsFunc(c.set(set), func(key uint64) bool { return key>>1 == tag })
}
