package cache

import (
	"testing"
)

// tiny returns a small cache: 4 sets x 2 ways x 64 B lines = 512 B.
func tiny() *Cache {
	return New(Config{SizeBytes: 512, Ways: 2, LineBytes: 64, MSHRs: 4})
}

func TestMissThenFillThenHit(t *testing.T) {
	c := tiny()
	filled := false
	if got := c.Access(0x100, false, func() { filled = true }); got != Miss {
		t.Fatalf("first access = %v, want miss", got)
	}
	if _, wb := c.Fill(c.LineAddr(0x100)); wb {
		t.Fatal("no writeback expected on a cold fill")
	}
	if !filled {
		t.Fatal("waiter not called on fill")
	}
	if got := c.Access(0x100, false, nil); got != Hit {
		t.Fatalf("after fill = %v, want hit", got)
	}
	if got := c.Access(0x13f, false, nil); got != Hit {
		t.Fatalf("same line, different offset = %v, want hit", got)
	}
}

func TestMergedMiss(t *testing.T) {
	c := tiny()
	calls := 0
	cb := func() { calls++ }
	if got := c.Access(0x200, false, cb); got != Miss {
		t.Fatal("want miss")
	}
	if got := c.Access(0x240-0x40, false, cb); got != MergedMiss { // same line
		t.Fatalf("second access to in-flight line = %v, want merged", got)
	}
	c.Fill(c.LineAddr(0x200))
	if calls != 2 {
		t.Fatalf("waiters called %d times, want 2", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Merged != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMSHRExhaustionRejects(t *testing.T) {
	c := tiny()
	for i := 0; i < 4; i++ {
		if got := c.Access(uint64(i)*64, false, nil); got != Miss {
			t.Fatalf("access %d = %v, want miss", i, got)
		}
	}
	if got := c.Access(4*64, false, nil); got != Rejected {
		t.Fatalf("5th distinct miss = %v, want rejected", got)
	}
	if c.InflightMisses() != 4 {
		t.Fatalf("InflightMisses = %d", c.InflightMisses())
	}
}

func TestLRUEvictionAndWriteback(t *testing.T) {
	c := tiny() // 4 sets → set = (addr>>6)&3; same set every 256 bytes
	// Fill both ways of set 0, first line dirty.
	c.Access(0x000, true, nil)
	c.Fill(0x000)
	c.Access(0x100, false, nil)
	c.Fill(0x100)
	// Touch 0x000 so 0x100 becomes LRU.
	if got := c.Access(0x000, false, nil); got != Hit {
		t.Fatal("0x000 should hit")
	}
	// Allocate a third line in set 0: evicts 0x100 (clean, no writeback).
	c.Access(0x200, false, nil)
	if victim, wb := c.Fill(0x200); wb {
		t.Fatalf("clean eviction should not write back (victim %#x)", victim)
	}
	if c.Contains(0x100) {
		t.Fatal("0x100 should have been evicted (LRU)")
	}
	if !c.Contains(0x000) {
		t.Fatal("0x000 (recently used) should survive")
	}
	// Fourth line evicts dirty 0x000: writeback required, correct address.
	c.Access(0x300, false, nil)
	victim, wb := c.Fill(0x300)
	if !wb || victim != 0x000 {
		t.Fatalf("dirty eviction: wb=%v victim=%#x, want true/0x0", wb, victim)
	}
}

func TestWriteAllocateMarksDirty(t *testing.T) {
	c := tiny()
	c.Access(0x000, true, nil) // store miss
	c.Fill(0x000)
	c.Access(0x100, false, nil)
	c.Fill(0x100)
	// Third line in set 0 evicts the LRU line 0x000, which the store made
	// dirty: must write back.
	c.Access(0x200, false, nil)
	victim, wb := c.Fill(0x200)
	if !wb || victim != 0x000 {
		t.Fatalf("write-allocated line should be dirty: wb=%v victim=%#x", wb, victim)
	}
}

func TestStoreMergeMarksDirty(t *testing.T) {
	c := tiny()
	c.Access(0x000, false, nil) // load miss
	c.Access(0x000, true, nil)  // store merged into the same MSHR
	c.Fill(0x000)
	c.Access(0x100, false, nil)
	c.Fill(0x100)
	c.Access(0x200, false, nil)
	victim, wb := c.Fill(0x200) // evicts LRU 0x000, dirtied by the merge
	if !wb || victim != 0x000 {
		t.Fatalf("line dirtied by a merged store must write back: wb=%v victim=%#x", wb, victim)
	}
}

func TestFillWithoutMSHRPanics(t *testing.T) {
	c := tiny()
	defer func() {
		if recover() == nil {
			t.Fatal("Fill without MSHR should panic")
		}
	}()
	c.Fill(0x40)
}

func TestDefaultsMatchPaperTable2(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.SizeBytes != 8<<20 || cfg.Ways != 8 || cfg.LineBytes != 64 {
		t.Fatalf("defaults %+v do not match Table 2 (8 MiB, 8-way, 64 B)", cfg)
	}
	c := New(Config{})
	if sets := len(c.keys) / c.cfg.Ways; sets != (8<<20)/(8*64) {
		t.Fatalf("set count = %d", sets)
	}
}

func TestVictimAddressRoundTrip(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 14, Ways: 2, LineBytes: 64, MSHRs: 8})
	// A line's reconstructed victim address must map back to the same set
	// and tag.
	addrs := []uint64{0x0, 0x40, 0x1000, 0xdeadbe40, 0x7fffffc0}
	for _, a := range addrs {
		la := c.LineAddr(a)
		set, tag := c.locate(la)
		if got := c.reconstruct(set, tag); got != la {
			t.Fatalf("reconstruct(%#x) = %#x", la, got)
		}
	}
}

func TestHitRateOnLoop(t *testing.T) {
	// A working set that fits the cache should be all hits after warmup.
	c := New(Config{SizeBytes: 1 << 14, Ways: 4, LineBytes: 64, MSHRs: 64})
	lines := (1 << 14) / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			addr := uint64(i * 64)
			out := c.Access(addr, false, nil)
			if pass == 0 && out == Miss {
				c.Fill(addr)
			} else if pass > 0 && out != Hit {
				t.Fatalf("pass %d line %d: %v, want hit", pass, i, out)
			}
		}
	}
}

// TestMissFillAllocFree is the LLC's hot-path allocation gate: once warmed,
// a miss, a store merged into it and the Fill that retires both reuse a
// recycled MSHR and its waiter list, allocating nothing. The addresses
// cycle through 16 tags of one set, so every access misses and every Fill
// evicts (a dirty victim from the merged store, once the set is full).
func TestMissFillAllocFree(t *testing.T) {
	c := New(Config{})
	stride := uint64(c.Config().SizeBytes / c.Config().Ways) // same set, next tag
	onFill := func() {}
	next := uint64(0)
	missThenFill := func() {
		addr := next * stride
		next = (next + 1) % 16
		if out := c.Access(addr, false, onFill); out != Miss {
			t.Fatalf("access %#x: %v, want miss", addr, out)
		}
		if out := c.Access(addr+8, true, onFill); out != MergedMiss {
			t.Fatalf("store %#x: %v, want merged miss", addr+8, out)
		}
		c.Fill(c.LineAddr(addr))
	}
	for i := 0; i < 64; i++ {
		missThenFill()
	}
	if allocs := testing.AllocsPerRun(1000, missThenFill); allocs != 0 {
		t.Fatalf("a warmed miss-then-Fill cycle allocates %.0f objects, want 0", allocs)
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("weak workout: no dirty victim was written back")
	}
}
