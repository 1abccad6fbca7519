package mem

import (
	"testing"

	"clrdram/internal/dram"
)

func smallCfg() dram.Config {
	cfg := dram.Standard16Gb()
	cfg.Rows = 1 << 12
	cfg.Columns = 128
	cfg.Timings[dram.ModeDefault] = dram.DDR4BaselineNS().ToCycles(cfg.ClockNS)
	return cfg
}

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	dev := dram.NewDevice(smallCfg())
	c, err := NewController(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// decode slices a raw test address into coordinates over smallCfg's
// geometry, which every test device shares: bits low to high are 6 of line
// offset, 7 of column, 4 of flat bank (bank group included) and 12 of row.
// Addresses past capacity wrap.
func decode(addr uint64) Address {
	line := addr >> 6
	return Address{Bank: int(line >> 7 & 15), Row: int(line >> 11 & 4095), Column: int(line & 127)}
}

// encode is decode's inverse within capacity.
func encode(a Address) uint64 {
	return (uint64(a.Row)<<11 | uint64(a.Bank)<<7 | uint64(a.Column)) << 6
}

// enqueue submits req decoded by decode.
func enqueue(c *Controller, req *Request) bool {
	return c.EnqueueDecoded(req, decode(req.Addr))
}

// runUntil ticks the controller until pred is true or the cycle budget is
// exhausted.
func runUntil(t *testing.T, c *Controller, budget int, pred func() bool) {
	t.Helper()
	for i := 0; i < budget; i++ {
		if pred() {
			return
		}
		c.Tick()
	}
	t.Fatalf("condition not reached within %d cycles", budget)
}

func TestReadCompletes(t *testing.T) {
	c := newTestController(t, Config{})
	var doneAt int64 = -1
	req := &Request{Addr: 0x1000, OnComplete: func(cy int64) { doneAt = cy }}
	if !enqueue(c, req) {
		t.Fatal("enqueue failed on empty controller")
	}
	runUntil(t, c, 10000, func() bool { return doneAt >= 0 })
	ts := dram.DDR4BaselineNS().ToCycles(1.0 / 1.2)
	min := int64(ts.RCD + ts.CL + ts.BL)
	if doneAt < min {
		t.Fatalf("read completed at %d, faster than tRCD+tCL+tBL = %d", doneAt, min)
	}
	st := c.Stats()
	if st.ReadsServed != 1 || st.RowBuffer.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 read served as a row miss", st)
	}
}

func TestWriteCompletesAtIssue(t *testing.T) {
	c := newTestController(t, Config{})
	done := false
	req := &Request{Addr: 0x2000, Write: true, OnComplete: func(int64) { done = true }}
	enqueue(c, req)
	runUntil(t, c, 10000, func() bool { return done })
	if c.Stats().WritesServed != 1 {
		t.Fatal("write not counted")
	}
}

func TestRowHitClassification(t *testing.T) {
	c := newTestController(t, Config{})
	done := 0
	cb := func(int64) { done++ }
	// Two reads to the same row: second should be a row hit.
	enqueue(c, &Request{Addr: 0x0, OnComplete: cb})
	enqueue(c, &Request{Addr: 0x40, OnComplete: cb})
	// One read to a different row of the same bank: conflict after timeout
	// or explicit precharge; since it queues immediately, it is a conflict.
	other := encode(Address{Bank: 0, Row: 7, Column: 0})
	enqueue(c, &Request{Addr: other, OnComplete: cb})
	runUntil(t, c, 100000, func() bool { return done == 3 })
	st := c.Stats().RowBuffer
	if st.Misses != 1 || st.Hits != 1 || st.Conflicts != 1 {
		t.Fatalf("row buffer stats = %+v, want 1 miss / 1 hit / 1 conflict", st)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	c := newTestController(t, Config{RowHitCap: 100})
	var order []int
	mk := func(id int, addr uint64) *Request {
		return &Request{Addr: addr, OnComplete: func(int64) { order = append(order, id) }}
	}
	rowA0 := encode(Address{Bank: 0, Row: 0, Column: 0})
	rowA1 := encode(Address{Bank: 0, Row: 0, Column: 5})
	rowB := encode(Address{Bank: 0, Row: 9, Column: 0})

	// Open row 0 first.
	enqueue(c, mk(0, rowA0))
	runUntil(t, c, 10000, func() bool { return len(order) == 1 })
	// Now enqueue a conflicting request (older) and then a row hit (newer).
	enqueue(c, mk(1, rowB))
	enqueue(c, mk(2, rowA1))
	runUntil(t, c, 100000, func() bool { return len(order) == 3 })
	if order[1] != 2 || order[2] != 1 {
		t.Fatalf("service order = %v, want row hit (2) before conflict (1)", order)
	}
}

func TestRowHitCapPreventsStarvation(t *testing.T) {
	// With a cap of 2, a stream of row hits must not indefinitely starve an
	// older conflicting request.
	c := newTestController(t, Config{RowHitCap: 2})
	var order []int
	mk := func(id int, addr uint64) *Request {
		return &Request{Addr: addr, OnComplete: func(int64) { order = append(order, id) }}
	}
	open := encode(Address{Bank: 0, Row: 0, Column: 0})
	enqueue(c, mk(0, open))
	runUntil(t, c, 10000, func() bool { return len(order) == 1 })

	conflict := encode(Address{Bank: 0, Row: 3, Column: 0})
	enqueue(c, mk(100, conflict))
	// Keep a hit stream coming; cap should let only ~2 more hits pass.
	for i := 0; i < 6; i++ {
		enqueue(c, mk(i+1, encode(Address{Bank: 0, Row: 0, Column: i + 1})))
	}
	runUntil(t, c, 200000, func() bool { return len(order) == 8 })
	pos := -1
	for i, id := range order {
		if id == 100 {
			pos = i
		}
	}
	if pos < 0 || pos > 4 {
		t.Fatalf("conflicting request served at position %d of %v, cap not enforced", pos, order)
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	c := newTestController(t, Config{WriteQueueCap: 8, WriteHigh: 4, WriteLow: 1})
	writesDone := 0
	for i := 0; i < 4; i++ {
		enqueue(c, &Request{Addr: uint64(i) * 64, Write: true, OnComplete: func(int64) { writesDone++ }})
	}
	runUntil(t, c, 100000, func() bool { return writesDone >= 3 })
}

func TestReadsPreferredOverWritesBelowWatermark(t *testing.T) {
	c := newTestController(t, Config{WriteQueueCap: 64})
	var first string
	enqueue(c, &Request{Addr: 0x40000, Write: true, OnComplete: func(int64) {
		if first == "" {
			first = "write"
		}
	}})
	enqueue(c, &Request{Addr: 0x0, OnComplete: func(int64) {
		if first == "" {
			first = "read"
		}
	}})
	runUntil(t, c, 100000, func() bool { return first != "" })
	if first != "read" {
		t.Fatalf("first completion = %s, want read (writes buffered below watermark)", first)
	}
}

func TestTimeoutRowPolicy(t *testing.T) {
	c := newTestController(t, Config{RowTimeoutNS: 120})
	done := false
	enqueue(c, &Request{Addr: 0, OnComplete: func(int64) { done = true }})
	runUntil(t, c, 10000, func() bool { return done })
	// No further requests: the open row must close after ~120 ns.
	runUntil(t, c, 10000, func() bool {
		open, _ := c.devBankOpen(0)
		return !open
	})
	if c.Stats().TimeoutCloses != 1 {
		t.Fatalf("TimeoutCloses = %d, want 1", c.Stats().TimeoutCloses)
	}
}

// devBankOpen exposes bank state for tests.
func (c *Controller) devBankOpen(bank int) (bool, int) { return c.dev.BankState(bank) }

func TestRefreshIssued(t *testing.T) {
	cfg := Config{Refresh: []RefreshStream{{Mode: dram.ModeDefault, Interval: 2000}}}
	c := newTestController(t, cfg)
	runUntil(t, c, 20000, func() bool { return c.Stats().Refreshes >= 3 })
	// Refresh must also work with an open row: enqueue a read, let the row
	// stay open, refresh must still get through.
	done := false
	enqueue(c, &Request{Addr: 0, OnComplete: func(int64) { done = true }})
	runUntil(t, c, 20000, func() bool { return done })
	before := c.Stats().Refreshes
	runUntil(t, c, 30000, func() bool { return c.Stats().Refreshes > before })
}

func TestStandardRefreshStreams(t *testing.T) {
	clock := 1.0 / 1.2
	// 0% HP: single stream at tREFI.
	s := StandardRefresh(clock, dram.ModeDefault, 0, 64)
	if len(s) != 1 || s[0].Mode != dram.ModeDefault {
		t.Fatalf("0%% HP streams = %+v", s)
	}
	tREFI := 64e6 / clock / 8192
	if diff := s[0].Interval - tREFI; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("interval = %v, want tREFI = %v", s[0].Interval, tREFI)
	}
	// 100% HP with 3x window: single stream, 3x the interval.
	s = StandardRefresh(clock, dram.ModeMaxCap, 1, 192)
	if len(s) != 1 || s[0].Mode != dram.ModeHighPerf {
		t.Fatalf("100%% HP streams = %+v", s)
	}
	if s[0].Interval < 2.99*tREFI || s[0].Interval > 3.01*tREFI {
		t.Fatalf("interval = %v, want ≈3·tREFI = %v", s[0].Interval, 3*tREFI)
	}
	// 50/50: two streams, each at 2x tREFI (half the rows each).
	s = StandardRefresh(clock, dram.ModeMaxCap, 0.5, 64)
	if len(s) != 2 {
		t.Fatalf("50%% HP should have 2 streams, got %d", len(s))
	}
	for _, st := range s {
		if st.Interval < 1.99*tREFI || st.Interval > 2.01*tREFI {
			t.Fatalf("50%% stream interval = %v, want ≈2·tREFI", st.Interval)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	c := newTestController(t, Config{ReadQueueCap: 2})
	if !enqueue(c, &Request{Addr: 0}) || !enqueue(c, &Request{Addr: 64}) {
		t.Fatal("first two enqueues should succeed")
	}
	if enqueue(c, &Request{Addr: 128}) {
		t.Fatal("third enqueue should fail: queue full")
	}
	if c.CanEnqueue(false) {
		t.Fatal("CanEnqueue should be false")
	}
	if !c.CanEnqueue(true) {
		t.Fatal("write queue should still accept")
	}
}

func TestDrained(t *testing.T) {
	c := newTestController(t, Config{})
	if !c.Drained() {
		t.Fatal("new controller should be drained")
	}
	done := false
	enqueue(c, &Request{Addr: 0, OnComplete: func(int64) { done = true }})
	if c.Drained() {
		t.Fatal("controller with queued request is not drained")
	}
	runUntil(t, c, 10000, func() bool { return done && c.Drained() })
}

func TestManyRandomRequestsAllComplete(t *testing.T) {
	c := newTestController(t, Config{Refresh: StandardRefresh(1.0/1.2, dram.ModeDefault, 0, 64)})
	const n = 400
	completed := 0
	cb := func(int64) { completed++ }
	// Deterministic pseudo-random addresses.
	addr := uint64(12345)
	issued := 0
	// Run long enough to cover several refresh intervals (tREFI ≈ 9375
	// device cycles) even after all requests complete.
	for cycles := 0; cycles < 50_000; cycles++ {
		if issued < n {
			addr = addr*6364136223846793005 + 1442695040888963407
			req := &Request{Addr: addr % (1 << 28), Write: issued%4 == 3, OnComplete: cb}
			if enqueue(c, req) {
				issued++
			}
		}
		c.Tick()
	}
	if completed != n {
		t.Fatalf("only %d/%d requests completed", completed, n)
	}
	st := c.Stats()
	if st.RowBuffer.Total() != n {
		t.Fatalf("row-buffer classified %d, want %d", st.RowBuffer.Total(), n)
	}
	if st.Refreshes == 0 {
		t.Fatal("expected refreshes during a long run")
	}
}

func TestRefreshPostponementDefersDuringTraffic(t *testing.T) {
	// With postponement enabled, a due refresh waits while requests queue;
	// with it disabled, the refresh preempts immediately. Both must issue
	// all obligated refreshes over a long window.
	mk := func(postpone int) (*Controller, *int) {
		c := newTestController(t, Config{
			MaxPostponedRefresh: postpone,
			Refresh:             []RefreshStream{{Mode: dram.ModeDefault, Interval: 2000}},
		})
		served := new(int)
		return c, served
	}

	run := func(c *Controller, served *int) (firstRefAt int64) {
		addr := uint64(777)
		for cycle := 0; cycle < 40000; cycle++ {
			// Constant traffic stream.
			if cycle%3 == 0 {
				addr = addr*6364136223846793005 + 1442695040888963407
				enqueue(c, &Request{Addr: addr % (1 << 26), OnComplete: func(int64) { *served++ }})
			}
			if firstRefAt == 0 && c.Stats().Refreshes > 0 {
				firstRefAt = c.Clock()
			}
			c.Tick()
		}
		return firstRefAt
	}

	eager, servedE := mk(0)
	eagerFirst := run(eager, servedE)
	lazy, servedL := mk(8)
	lazyFirst := run(lazy, servedL)

	if lazyFirst <= eagerFirst {
		t.Fatalf("postponed first REF at %d, eager at %d: postponement had no effect",
			lazyFirst, eagerFirst)
	}
	// The postponed controller must still catch up: over 40k cycles with a
	// 2k interval, ~20 refreshes are owed; allow the postponement budget.
	if got := lazy.Stats().Refreshes; got+8 < eager.Stats().Refreshes {
		t.Fatalf("postponement lost refreshes: %d vs %d", got, eager.Stats().Refreshes)
	}
	if *servedL < *servedE {
		t.Fatalf("postponement should not reduce served requests: %d vs %d", *servedL, *servedE)
	}
}

func TestPREAUsedForRefresh(t *testing.T) {
	// The refresh path precharges the whole rank with one PREA command
	// instead of per-bank PREs: after heavy multi-bank traffic, a refresh
	// must still complete promptly.
	c := newTestController(t, Config{
		Refresh: []RefreshStream{{Mode: dram.ModeDefault, Interval: 3000}},
	})
	done := 0
	for i := 0; i < 12; i++ {
		addr := encode(Address{Bank: i % 16, Row: i, Column: 0})
		enqueue(c, &Request{Addr: addr, OnComplete: func(int64) { done++ }})
	}
	runUntil(t, c, 100000, func() bool { return done == 12 && c.Stats().Refreshes >= 2 })
}
