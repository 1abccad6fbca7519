package core

import (
	"io"
	"slices"

	"clrdram/internal/trace"
)

// Profiler accumulates page-granularity access counts, implementing the
// paper's profiling-based hot-page identification (§8.1: "a profiling-based
// approach (similar to prior works) to assign a workload's X% of the most
// frequently-accessed pages to high-performance rows").
//
// Counts live in a slice indexed by page, grown to the highest page seen.
// A page at or beyond denseLimit (a trace record far outside any footprint
// a system could map) is counted in a map instead, so one stray address
// cannot make the slice huge; Ranking folds those pages into the slice when
// its range covers them.
type Profiler struct {
	counts []uint64          // accesses per page, indexed by page
	far    map[uint64]uint64 // accesses to pages ≥ len(counts) and ≥ denseLimit
	total  uint64
}

// denseLimit bounds how far Record grows the count slice on its own (2^22
// pages, a 16 GiB footprint, 32 MiB of counters).
const denseLimit = 1 << 22

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{}
}

// Record notes one access to addr.
func (p *Profiler) Record(addr uint64) {
	pg := addr / PageBytes
	if pg < uint64(len(p.counts)) {
		p.counts[pg]++
	} else {
		p.recordBeyond(pg)
	}
	p.total++
}

// recordBeyond counts an access to a page the slice does not cover yet:
// it grows the slice (at least doubling it) below denseLimit, and counts
// the page in the far map above it.
func (p *Profiler) recordBeyond(pg uint64) {
	if pg >= denseLimit {
		if p.far == nil {
			p.far = make(map[uint64]uint64)
		}
		p.far[pg]++
		return
	}
	p.grow(min(max(int(pg)+1, 2*len(p.counts)), denseLimit))
	p.counts[pg]++
}

// grow extends the count slice to n pages, moving in the far pages it now
// covers.
func (p *Profiler) grow(n int) {
	counts := make([]uint64, n)
	copy(counts, p.counts)
	for pg, c := range p.far {
		if pg < uint64(n) {
			counts[pg] += c
			delete(p.far, pg)
		}
	}
	p.counts = counts
}

// Sample profiles up to n records from a trace reader (stopping early at
// EOF) and returns how many were consumed.
func (p *Profiler) Sample(rd trace.Reader, n int) int {
	consumed := 0
	for consumed < n {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			break
		}
		p.Record(rec.Addr)
		consumed++
	}
	return consumed
}

// Accesses returns the total recorded access count, pages beyond any
// ranking's range included.
func (p *Profiler) Accesses() uint64 { return p.total }

// Ranking returns every page in [0, totalPages) ordered from most to least
// accessed; ties and never-accessed pages keep ascending page order so the
// result is deterministic and covers the whole footprint (as BuildMapping
// requires).
func (p *Profiler) Ranking(totalPages int) []int {
	if totalPages > len(p.counts) {
		p.grow(totalPages)
	}
	counts := p.counts
	pages := make([]int, totalPages)
	for i := range pages {
		pages[i] = i
	}
	// (count descending, page ascending) is a total order, so the unstable
	// sort yields the one stable-by-page answer.
	slices.SortFunc(pages, func(a, b int) int {
		ca, cb := counts[a], counts[b]
		switch {
		case ca > cb:
			return -1
		case ca < cb:
			return 1
		}
		return a - b
	})
	return pages
}

// CoverageOfTop returns the fraction of recorded accesses that fall in the
// top n pages of the ranking — used to reproduce the paper's §8.2 coverage
// anecdotes.
func (p *Profiler) CoverageOfTop(totalPages, n int) float64 {
	if p.total == 0 || n <= 0 {
		return 0
	}
	rank := p.Ranking(totalPages)
	if n > len(rank) {
		n = len(rank)
	}
	var sum uint64
	for _, pg := range rank[:n] {
		sum += p.counts[pg]
	}
	return float64(sum) / float64(p.total)
}
