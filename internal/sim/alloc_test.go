package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

// refHitHeap is the container/heap implementation hitHeap replaced: the
// reference for its pop order, ties included.
type refHitHeap []hitEvent

func (h refHitHeap) Len() int           { return len(h) }
func (h refHitHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h refHitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHitHeap) Push(x any)        { *h = append(*h, x.(hitEvent)) }
func (h *refHitHeap) Pop() any {
	last := len(*h) - 1
	ev := (*h)[last]
	*h = (*h)[:last]
	return ev
}

// TestHitHeapMatchesContainerHeap interleaves pushes and pops of due cycles
// with many ties, the heap growing and shrinking in turn, and checks that
// hitHeap pops exactly the events container/heap pops, in the same order.
// Every event carries a distinct core tag, so equal-due events are told
// apart.
func TestHitHeapMatchesContainerHeap(t *testing.T) {
	var got hitHeap
	var ref refHitHeap
	rng := rand.New(rand.NewSource(1))
	base := int64(0)
	check := func(step int) {
		a, b := got.pop(), heap.Pop(&ref).(hitEvent)
		if a.due != b.due || a.core != b.core {
			t.Fatalf("step %d: popped {due %d core %d}, container/heap pops {due %d core %d}",
				step, a.due, a.core, b.due, b.core)
		}
	}
	for step := 0; step < 50_000; step++ {
		pushPct := 70
		if step/2000%2 == 1 {
			pushPct = 35
		}
		if got.Len() == 0 || rng.Intn(100) < pushPct {
			ev := hitEvent{due: base + int64(rng.Intn(6)), core: step}
			got.push(ev)
			heap.Push(&ref, ev)
		} else {
			if a := got.peek(); a.due != ref[0].due || a.core != ref[0].core {
				t.Fatalf("step %d: peek {due %d core %d}, container/heap top {due %d core %d}",
					step, a.due, a.core, ref[0].due, ref[0].core)
			}
			check(step)
		}
		base += int64(rng.Intn(2))
		if got.Len() != ref.Len() {
			t.Fatalf("step %d: length %d, container/heap %d", step, got.Len(), ref.Len())
		}
	}
	for got.Len() > 0 {
		check(-1)
	}
}

// TestRunForAllocsPerLLCMiss is the simulator's request-path allocation
// gate: once a 429.mcf-like system has warmed its request pools, MSHRs and
// queues, a RunFor segment makes at most one heap allocation per 100 LLC
// misses.
func TestRunForAllocsPerLLCMiss(t *testing.T) {
	p, ok := workload.ByName("429.mcf-like")
	if !ok {
		t.Fatal("workload 429.mcf-like not found")
	}
	s, err := NewSystem([]workload.Profile{p}, core.CLR(0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(50_000)
	missesBefore := s.llc.Stats().Misses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RunFor(300_000)
	runtime.ReadMemStats(&after)
	misses := s.llc.Stats().Misses - missesBefore
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs over %d LLC misses", mallocs, misses)
	if misses < 5_000 {
		t.Fatalf("weak segment: only %d LLC misses", misses)
	}
	if mallocs*100 > misses {
		t.Fatalf("%d mallocs over %d LLC misses, want at most 1 per 100", mallocs, misses)
	}
}
