package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refRanking is the reference ranking: counts in a map, then a stable
// sort by descending count over pages in ascending order.
func refRanking(counts map[uint64]uint64, totalPages int) []int {
	pages := make([]int, totalPages)
	for i := range pages {
		pages[i] = i
	}
	sort.SliceStable(pages, func(a, b int) bool {
		return counts[uint64(pages[a])] > counts[uint64(pages[b])]
	})
	return pages
}

// TestProfilerRankingOrder pins the ranking's tie rules: equal counts keep
// ascending page order, untouched pages rank last (ascending), and pages at
// or beyond totalPages count in Accesses but are not ranked.
func TestProfilerRankingOrder(t *testing.T) {
	p := NewProfiler()
	for _, pg := range []uint64{7, 2, 7, 5, 2, 9, 0, 12, 12, 12} {
		p.Record(pg*PageBytes + 8)
	}
	got := p.Ranking(10)
	want := []int{2, 7, 0, 5, 9, 1, 3, 4, 6, 8}
	if !slices.Equal(got, want) {
		t.Fatalf("Ranking(10) = %v, want %v", got, want)
	}
	if p.Accesses() != 10 {
		t.Fatalf("Accesses = %d, want 10 (page 12 included)", p.Accesses())
	}
	if c := p.CoverageOfTop(10, 2); c != 0.4 {
		t.Fatalf("top-2 coverage = %v, want 0.4 (page 12 is outside the ranking)", c)
	}
	if got := NewProfiler().Ranking(3); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("empty profiler ranks %v, want ascending pages", got)
	}
}

// TestProfilerMatchesMapReference compares Ranking and CoverageOfTop with
// the map-counted reference on a skewed random stream, at ranges below,
// at and beyond the highest page recorded.
func TestProfilerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewProfiler()
	counts := map[uint64]uint64{}
	for i := 0; i < 50_000; i++ {
		pg := uint64(rng.ExpFloat64() * 300)
		p.Record(pg*PageBytes + uint64(rng.Intn(PageBytes)))
		counts[pg]++
	}
	for _, n := range []int{1, 100, 4000, 9000} {
		if got, want := p.Ranking(n), refRanking(counts, n); !slices.Equal(got, want) {
			t.Fatalf("Ranking(%d) differs from the map-counted reference", n)
		}
	}
}

// TestProfilerFarPages records pages beyond denseLimit: they count in
// Accesses without growing the count slice, and a ranking whose range
// covers them ranks them by their counts.
func TestProfilerFarPages(t *testing.T) {
	p := NewProfiler()
	far := uint64(denseLimit + 1)
	p.Record(far * PageBytes)
	p.Record(far * PageBytes)
	p.Record(1 << 62)
	p.Record(3 * PageBytes)
	if len(p.counts) >= denseLimit {
		t.Fatalf("a far page grew the count slice to %d pages", len(p.counts))
	}
	if p.Accesses() != 4 {
		t.Fatalf("Accesses = %d, want 4", p.Accesses())
	}
	if got := p.Ranking(5); !slices.Equal(got, []int{3, 0, 1, 2, 4}) {
		t.Fatalf("Ranking(5) = %v", got)
	}
	r := p.Ranking(int(far) + 2)
	if r[0] != int(far) || r[1] != 3 || r[2] != 0 {
		t.Fatalf("Ranking(far+2) starts %v, want [%d 3 0 …]", r[:3], far)
	}
	p.Record(far * PageBytes) // now inside the grown slice
	if c := p.CoverageOfTop(int(far)+2, 1); c != 0.6 {
		t.Fatalf("top-1 coverage = %v, want 3/5", c)
	}
}
