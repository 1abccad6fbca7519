package mem

import (
	"testing"

	"clrdram/internal/dram"
)

// TestQueueIndexInvariant checks the per-bank queue index against a full
// recount on every tick of the lockstep traffic, for every scheduler and
// every walkSeeds case: each bank's summary (oldest hit, oldest conflict,
// hits younger than that conflict), the three bank masks of both queues
// (whose hit masks answer openRowQueued) and the at-cap mask. The bank
// lists merged by sequence number must equal the arrival order of the
// requests still queued, and a request may leave the index only on the
// tick that issued its column access. The index is checked after each
// cycle's arrivals and again after its tick.
func TestQueueIndexInvariant(t *testing.T) {
	for _, sched := range SchedulerNames() {
		for i := range walkSeeds {
			wc, name := walkSeedCase(sched, i)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				tw := newWalkTwin(t, wc, false)
				var queued [2][]*Request // reads, writes: the requests still queued, oldest first
				state, id, capped := wc.seed, 0, 0
				for cycle := 0; cycle < wc.cycles; cycle++ {
					walkArrivals(t, &state, &id, tw)
					for _, r := range tw.arrived {
						queued[b2i(r.Write)] = append(queued[b2i(r.Write)], r)
					}
					tw.arrived = tw.arrived[:0]
					checkQueueIndex(t, tw.c) // enqueue folds requests in incrementally
					cmds := len(tw.log.cmds)
					tw.c.Tick()
					capped += checkQueueIndex(t, tw.c)
					checkDepartures(t, tw, &queued, cmds)
				}
				// A one-entry read queue never holds a hit behind a conflict.
				st := tw.c.Stats()
				if st.WritesServed == 0 || st.RowBuffer.Conflicts == 0 || (wc.readCap > 1 && capped == 0) {
					t.Fatalf("weak traffic: %d ticks with capped hits, %d writes, %+v",
						capped, st.WritesServed, st.RowBuffer)
				}
			})
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkQueueIndex recomputes c's index from the bank lists and the device
// state and fails on any maintained value that differs. It returns 1 if some
// at-cap bank holds capped hits, else 0.
func checkQueueIndex(t *testing.T, c *Controller) (capped int) {
	t.Helper()
	now := c.Clock()
	for qi, q := range []*queue{&c.read, &c.write} {
		var nonEmpty, hits, conflicts uint64
		n := 0
		for b := range q.banks {
			bq := &q.banks[b]
			open, row := c.dev.BankState(b)
			hit, conflict, younger := -1, -1, 0
			for i, r := range bq.reqs {
				if r.decoded.Bank != b || r.Write != (qi == 1) {
					t.Fatalf("cycle %d: queue %d bank %d holds a request for bank %d (write %v)", now, qi, b, r.decoded.Bank, r.Write)
				}
				if i > 0 && bq.reqs[i-1].seq >= r.seq {
					t.Fatalf("cycle %d: queue %d bank %d is not oldest first at index %d", now, qi, b, i)
				}
				switch {
				case !open:
				case r.decoded.Row == row:
					if hit < 0 {
						hit = i
					}
					if conflict >= 0 {
						younger++
					}
				case conflict < 0:
					conflict = i
				}
			}
			if bq.hit != hit || bq.conflict != conflict || bq.capped != younger {
				t.Fatalf("cycle %d: queue %d bank %d summary (hit %d, conflict %d, capped %d), recount (%d, %d, %d)",
					now, qi, b, bq.hit, bq.conflict, bq.capped, hit, conflict, younger)
			}
			bit := uint64(1) << uint(b)
			if len(bq.reqs) > 0 {
				nonEmpty |= bit
			}
			if hit >= 0 {
				hits |= bit
			}
			if conflict >= 0 {
				conflicts |= bit
				if younger > 0 && c.hitStreak[b] >= c.cfg.RowHitCap {
					capped = 1
				}
			}
			n += len(bq.reqs)
		}
		if q.n != n || q.nonEmpty != nonEmpty || q.hits != hits || q.conflicts != conflicts {
			t.Fatalf("cycle %d: queue %d n=%d masks %#x/%#x/%#x, recount n=%d %#x/%#x/%#x",
				now, qi, q.n, q.nonEmpty, q.hits, q.conflicts, n, nonEmpty, hits, conflicts)
		}
	}
	var atCap uint64
	for b, streak := range c.hitStreak {
		if streak >= c.cfg.RowHitCap {
			atCap |= 1 << uint(b)
		}
	}
	if c.atCap != atCap {
		t.Fatalf("cycle %d: at-cap mask %#x, recount %#x", now, c.atCap, atCap)
	}
	return capped
}

// checkDepartures matches the index, merged in age order, against the
// requests still queued by arrival order, and drops the ones that left. At
// most one request may leave per tick, and only with the column access the
// tick issued (the device log beyond cmds).
func checkDepartures(t *testing.T, tw *walkTwin, queued *[2][]*Request, cmds int) {
	t.Helper()
	var left []*Request
	for qi, q := range []*queue{&tw.c.read, &tw.c.write} {
		got, j := ageOrder(q), 0
		for _, r := range queued[qi] {
			if j < len(got) && got[j] == r {
				j++
			} else {
				left = append(left, r)
			}
		}
		if j != len(got) {
			t.Fatalf("cycle %d: queue %d in age order is not the arrival order of the requests still queued", tw.c.Clock(), qi)
		}
		queued[qi] = append(queued[qi][:0], got...)
	}
	var column *dram.Command
	for _, lc := range tw.log.cmds[cmds:] {
		if lc.cmd.Kind == dram.KindRD || lc.cmd.Kind == dram.KindWR {
			column = &lc.cmd
		}
	}
	switch {
	case len(left) == 0 && column == nil:
	case len(left) == 1 && column != nil:
		r := left[0]
		if d := r.decoded; column.Bank != d.Bank || column.Row != d.Row || column.Column != d.Column ||
			(column.Kind == dram.KindWR) != r.Write {
			t.Fatalf("cycle %d: request %+v left the queue on %+v", tw.c.Clock(), d, *column)
		}
	default:
		t.Fatalf("cycle %d: %d requests left the queues, column access %v", tw.c.Clock(), len(left), column)
	}
}
