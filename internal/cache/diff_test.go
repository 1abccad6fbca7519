package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// refCache is a reference model of the LLC with a per-set layout: one
// slice of 24-byte lines per set, an explicit valid bit, and a Clone that
// copies set by set. The differential test below drives it in lockstep
// with Cache.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	setMask  uint64
	lineBits uint
	tick     uint64
	mshrs    map[uint64]*refMSHR
	st       Stats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

type refMSHR struct {
	waiters []func()
	dirty   bool
}

func newRef(cfg Config) *refCache {
	cfg = cfg.Defaults()
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	sets := make([][]refLine, nsets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(nsets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		mshrs:    make(map[uint64]*refMSHR),
	}
}

func (c *refCache) lineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *refCache) locate(lineAddr uint64) (set, tag uint64) {
	idx := lineAddr >> c.lineBits
	return idx & c.setMask, idx >> uint(bits.TrailingZeros(uint(len(c.sets))))
}

func (c *refCache) access(addr uint64, write bool, onFill func()) Outcome {
	c.tick++
	la := c.lineAddr(addr)
	set, tag := c.locate(la)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.used = c.tick
			if write {
				ln.dirty = true
			}
			c.st.Hits++
			return Hit
		}
	}
	if m, ok := c.mshrs[la]; ok {
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
	m := &refMSHR{dirty: write}
	if onFill != nil {
		m.waiters = append(m.waiters, onFill)
	}
	c.mshrs[la] = m
	c.st.Misses++
	return Miss
}

func (c *refCache) fill(la uint64) (victim uint64, wb bool) {
	m := c.mshrs[la]
	delete(c.mshrs, la)
	set, tag := c.locate(la)
	vi := 0
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if !ln.valid {
			vi = i
			break
		}
		if ln.used < c.sets[set][vi].used {
			vi = i
		}
	}
	v := &c.sets[set][vi]
	if v.valid && v.dirty {
		wb = true
		idx := v.tag<<uint(bits.TrailingZeros(uint(len(c.sets)))) | set
		victim = idx << c.lineBits
		c.st.Writebacks++
	}
	c.tick++
	*v = refLine{tag: tag, valid: true, dirty: m.dirty, used: c.tick}
	for _, w := range m.waiters {
		w()
	}
	return victim, wb
}

func (c *refCache) clone() *refCache {
	nc := *c
	nc.sets = make([][]refLine, len(c.sets))
	for i := range c.sets {
		nc.sets[i] = append([]refLine(nil), c.sets[i]...)
	}
	nc.mshrs = make(map[uint64]*refMSHR)
	return &nc
}

// lockstep drives a Cache and a refCache with the same operations and
// fails at the first outcome, victim, waiter call or statistic on which
// they differ.
type lockstep struct {
	t        *testing.T
	c        *Cache
	ref      *refCache
	inflight []uint64 // line addresses with an MSHR, in allocation order
	log      []string // waiter calls, "c<id>" or "r<id>"
	ops      int
	outcomes [4]int
}

func (l *lockstep) access(addr uint64, write bool) {
	l.ops++
	id := l.ops
	got := l.c.Access(addr, write, func() { l.log = append(l.log, fmt.Sprintf("c%d", id)) })
	want := l.ref.access(addr, write, func() { l.log = append(l.log, fmt.Sprintf("r%d", id)) })
	if got != want {
		l.t.Fatalf("op %d: Access(%#x, write=%v) = %v, reference %v", l.ops, addr, write, got, want)
	}
	l.outcomes[got]++
	if got == Miss {
		l.inflight = append(l.inflight, l.c.LineAddr(addr))
	}
	l.compareStats()
}

// fill retires the in-flight miss at index i.
func (l *lockstep) fill(i int) {
	l.ops++
	la := l.inflight[i]
	l.inflight = append(l.inflight[:i], l.inflight[i+1:]...)
	l.log = l.log[:0]
	v, wb := l.c.Fill(la)
	cLog := append([]string(nil), l.log...)
	l.log = l.log[:0]
	rv, rwb := l.ref.fill(la)
	if v != rv || wb != rwb {
		l.t.Fatalf("op %d: Fill(%#x) = (%#x, %v), reference (%#x, %v)", l.ops, la, v, wb, rv, rwb)
	}
	if len(cLog) != len(l.log) {
		l.t.Fatalf("op %d: Fill(%#x) ran %d waiters, reference %d", l.ops, la, len(cLog), len(l.log))
	}
	for k := range cLog {
		if cLog[k][1:] != l.log[k][1:] {
			l.t.Fatalf("op %d: Fill(%#x) waiter order %v, reference %v", l.ops, la, cLog, l.log)
		}
	}
	l.compareStats()
}

func (l *lockstep) compareStats() {
	if got, want := l.c.Stats(), l.ref.st; got != want {
		l.t.Fatalf("op %d: Stats %+v, reference %+v", l.ops, got, want)
	}
	if got, want := l.c.InflightMisses(), len(l.ref.mshrs); got != want {
		l.t.Fatalf("op %d: %d misses in flight, reference %d", l.ops, got, want)
	}
}

// run issues n random operations: loads and stores, and fills of a random
// in-flight miss. Most addresses fall on up to 16 sets with four times as
// many tags as ways, so accesses hit, merge into in-flight misses and, with
// the MSHRs full, are rejected, and fills evict clean and dirty victims;
// one in eight is an arbitrary 64-bit address, reaching the high tag bits.
func (l *lockstep) run(rng *rand.Rand, n int) {
	cfg := l.ref.cfg
	sets := len(l.ref.sets)
	for i := 0; i < n; i++ {
		if len(l.inflight) > 0 && rng.Intn(3) == 0 {
			l.fill(rng.Intn(len(l.inflight)))
			continue
		}
		addr := rng.Uint64()
		if rng.Intn(8) != 0 {
			set, tag := rng.Intn(min(sets, 16)), rng.Intn(4*cfg.Ways)
			addr = uint64((tag*sets+set)*cfg.LineBytes + rng.Intn(cfg.LineBytes))
		}
		l.access(addr, rng.Intn(4) == 0)
	}
}

// drain retires every in-flight miss, oldest first.
func (l *lockstep) drain() {
	for len(l.inflight) > 0 {
		l.fill(0)
	}
}

// referenceGeometries are Table 2 and four small geometries: few sets and
// MSHRs, 32-byte lines, and the two smallest address splits a valid
// geometry allows (one set of 2-byte lines leaves a 63-bit tag).
var referenceGeometries = []struct {
	name string
	cfg  Config
}{
	{"table2", Config{}},
	{"16KiB-4way", Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, MSHRs: 8}},
	{"4KiB-8way-32B", Config{SizeBytes: 4 << 10, Ways: 8, LineBytes: 32, MSHRs: 3}},
	{"1set-2B", Config{SizeBytes: 4, Ways: 2, LineBytes: 2, MSHRs: 2}},
	{"2way-1B", Config{SizeBytes: 256, Ways: 2, LineBytes: 1, MSHRs: 2}},
}

// TestCacheMatchesReference drives the recency-ordered tag store and the
// per-set reference through one random stream per geometry, with a Clone of
// both in mid-stream. The clones continue the stream in lockstep, and so do
// the originals afterwards, which shows the clone shares no lines with them.
func TestCacheMatchesReference(t *testing.T) {
	for _, tc := range referenceGeometries {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			l := &lockstep{t: t, c: New(tc.cfg), ref: newRef(tc.cfg)}
			l.run(rng, 40_000)
			l.drain()

			forked := &lockstep{t: t, c: l.c.Clone(), ref: l.ref.clone(), ops: l.ops}
			forked.run(rand.New(rand.NewSource(99)), 20_000)
			forked.drain()
			l.run(rng, 20_000)
			l.drain()

			for _, s := range []*lockstep{l, forked} {
				for o, n := range s.outcomes {
					if n == 0 {
						t.Errorf("weak workout: no %v outcome", Outcome(o))
					}
				}
				if s.c.Stats().Writebacks == 0 {
					t.Error("weak workout: no dirty victim")
				}
			}
		})
	}
}

// TestPackedKeyKeepsEveryTagBit round-trips a dirty line at the largest tag
// a valid geometry allows: one set of 2-byte lines leaves a 63-bit tag,
// and the key packs the dirty bit beside it.
func TestPackedKeyKeepsEveryTagBit(t *testing.T) {
	c := New(Config{SizeBytes: 4, Ways: 2, LineBytes: 2, MSHRs: 2})
	top := c.LineAddr(^uint64(0)) // 0xffff…fffe: tag 2^63−1
	if _, tag := c.locate(top); tag != 1<<63-1 {
		t.Fatalf("tag of %#x = %#x, want 2^63−1", top, tag)
	}
	if out := c.Access(top, true, nil); out != Miss {
		t.Fatalf("store to %#x: %v, want miss", top, out)
	}
	c.Fill(top)
	if !c.Contains(top) || c.Contains(top-2) {
		t.Fatal("Contains confused the top line with its neighbour")
	}
	c.Access(0, false, nil)
	c.Fill(0)
	c.Access(2, false, nil)
	if victim, wb := c.Fill(2); !wb || victim != top {
		t.Fatalf("evicting the top line: victim %#x (writeback %v), want %#x", victim, wb, top)
	}

	if err := (Config{SizeBytes: 2, Ways: 2, LineBytes: 1}).Validate(); err == nil {
		t.Fatal("one set of 1-byte lines leaves a 64-bit tag and must be rejected")
	}
}

// FuzzCacheMatchesReference decodes a geometry and an operation stream and
// requires either a Validate rejection (a *ConfigError, and New panicking
// with it) or a Cache that runs in lockstep with the per-set reference:
// same outcomes, victims, waiter calls and Stats. Each operation is one
// byte, some followed by operand bytes:
//
//   - 0x00–0x7f: an access, a store if bit 6 is set, to set (bits 0–5)
//     mod the set count, with a tag (next byte, mod 4·Ways) and a byte
//     offset (the byte after, mod the line size);
//   - 0x80–0xbf: a fill of in-flight miss (bits 0–5) mod their number;
//   - 0xc0–0xef: an access, a store if bit 0 is set, to the 64-bit address
//     of the next eight bytes (the high tag bits);
//   - 0xf0–0xff: drain the misses in flight and Clone; later operations
//     alternate between the original and the clones (at most four caches
//     run at once), each in lockstep with its own reference clone.
//
// A missing operand byte reads as 0. To bound the time and memory one
// input takes (every operation scans a set in both models, and the
// reference allocates a slice per set and clone), geometries of more than
// 256 ways or more lines than Table 2's 2^17 are only validated, and only
// the first 16 KiB of a stream is decoded.
func FuzzCacheMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range referenceGeometries {
		ops := make([]byte, 4096)
		rng.Read(ops)
		f.Add(int32(g.cfg.SizeBytes), int16(g.cfg.Ways), int16(g.cfg.LineBytes), int8(g.cfg.MSHRs), ops)
	}
	f.Fuzz(func(t *testing.T, size int32, ways, lineBytes int16, mshrs int8, ops []byte) {
		cfg := Config{SizeBytes: int(size), Ways: int(ways), LineBytes: int(lineBytes), MSHRs: int(mshrs)}.Defaults()
		if err := cfg.Validate(); err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate returned %T, want *ConfigError", err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted a geometry Validate rejects")
				}
			}()
			New(cfg)
			return
		}
		if cfg.Ways > 256 || cfg.SizeBytes/cfg.LineBytes > 1<<17 {
			return
		}
		ops = ops[:min(len(ops), 16<<10)]
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
		running := []*lockstep{{t: t, c: New(cfg), ref: newRef(cfg)}}
		for k := 0; len(ops) > 0; k++ {
			l := running[k%len(running)]
			switch op := next(); {
			case op < 0x80:
				tag, off := int(next())%(4*cfg.Ways), int(next())%cfg.LineBytes
				l.access(uint64((tag*sets+int(op&63)%sets)*cfg.LineBytes+off), op&0x40 != 0)
			case op < 0xc0:
				if len(l.inflight) > 0 {
					l.fill(int(op&63) % len(l.inflight))
				}
			case op < 0xf0:
				var addr [8]byte
				for i := range addr {
					addr[i] = next()
				}
				l.access(binary.LittleEndian.Uint64(addr[:]), op&1 != 0)
			case len(running) < 4:
				l.drain()
				running = append(running, &lockstep{t: t, c: l.c.Clone(), ref: l.ref.clone(), ops: l.ops})
			}
		}
		for _, l := range running {
			l.drain()
		}
	})
}
