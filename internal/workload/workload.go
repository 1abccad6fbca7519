// Package workload generates the CPU traces that drive the system-level
// evaluation, substituting for the paper's Pin-generated SPEC CPU2006, TPC
// and MediaBench traces (which are not redistributable) and reproducing the
// paper's 30 in-house synthetic random/stream traces directly.
//
// Each workload is a Profile: a named, deterministic generator parameterised
// by the two properties the paper's conclusions depend on:
//
//   - memory intensity — controlled by BubbleMean (non-memory instructions
//     per memory instruction) and the footprint relative to the 8 MiB LLC,
//     which together set the MPKI class (paper §8.1: MPKI > 2.0 is
//     memory-intensive);
//   - page-access concentration — controlled by ZipfTheta, which sets how
//     much of the access stream the top X% of pages capture. This drives the
//     25/50/75/100% hot-page mapping scaling of Figure 12 (§8.2 obs. 4):
//     near-uniform profiles (libquantum-like) scale almost linearly, heavily
//     skewed profiles (soplex-like) saturate early.
//
// All generators are deterministic given (profile, seed).
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"clrdram/internal/trace"
)

// PageBytes is the OS page size assumed throughout the model.
const PageBytes = 4096

// LineBytes is the cache line size (Table 2).
const LineBytes = 64

// LinesPerPage is the number of cache lines in a page.
const LinesPerPage = PageBytes / LineBytes

// Pattern selects the address-stream shape of a profile.
type Pattern int

// Supported access patterns.
const (
	// PatternStream walks the footprint sequentially one line at a time,
	// wrapping at the end (the paper's "stream" synthetic traces: high row
	// locality).
	PatternStream Pattern = iota
	// PatternRandom picks a page by popularity (Zipf) and a uniform line
	// within it for every access (the paper's "random" traces: minimal row
	// locality, frequent row-buffer conflicts).
	PatternRandom
	// PatternMixed interleaves sequential runs with popularity-driven
	// jumps; StreamFrac controls the fraction of sequential accesses.
	PatternMixed
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternStream:
		return "stream"
	case PatternRandom:
		return "random"
	case PatternMixed:
		return "mixed"
	default:
		return "unknown"
	}
}

// Profile describes one workload generator.
type Profile struct {
	Name           string
	Pattern        Pattern
	FootprintPages int     // working-set size in 4 KiB pages
	ZipfTheta      float64 // page-popularity skew; 0 = uniform
	BubbleMean     int     // mean non-memory instructions per memory access
	WriteFrac      float64 // fraction of memory accesses that are stores
	StreamFrac     float64 // PatternMixed: fraction of sequential accesses
	StrideLines    int     // PatternStream: lines advanced per access (≥1)
	Synthetic      bool    // true for the 30 in-house random/stream traces
	MemIntensive   bool    // paper classification: MPKI > 2.0

	// Records, when non-nil, replaces the synthetic generator: NewReader
	// replays these records in a loop (trace-file workloads, cmd/tracegen
	// round-trips). The popularity helpers (PageWeights, Coverage...) are
	// undefined for record-backed profiles.
	Records []trace.Record
}

// FromRecords wraps a captured trace as a Profile. The footprint is derived
// from the highest page touched.
func FromRecords(name string, records []trace.Record) (Profile, error) {
	if len(records) == 0 {
		return Profile{}, fmt.Errorf("workload: empty trace %q", name)
	}
	var maxPage uint64
	for _, r := range records {
		if p := r.Addr / PageBytes; p > maxPage {
			maxPage = p
		}
	}
	return Profile{
		Name:           name,
		FootprintPages: int(maxPage) + 1,
		Records:        records,
	}, nil
}

// FootprintBytes returns the workload's address-space footprint in bytes.
func (p Profile) FootprintBytes() uint64 {
	return uint64(p.FootprintPages) * PageBytes
}

// ProfileError is the typed error Profile.Validate returns: Field names the
// offending Profile field and Detail spells out the rejected value.
type ProfileError struct {
	Profile string // the profile's Name
	Field   string
	Detail  string
}

func (e *ProfileError) Error() string {
	return fmt.Sprintf("workload: profile %q: field %s: %s", e.Profile, e.Field, e.Detail)
}

// Validate checks that the profile describes a stream NewReader can
// generate: a footprint of 1 to math.MaxInt32 pages (record-backed profiles
// may leave it 0), a known Pattern, WriteFrac and StreamFrac in [0, 1], a
// BubbleMean from 0 to maxBubbleMean, and a finite ZipfTheta whose page
// weights and their sum stay finite. The weight of rank r is (r+1)^−θ, so
// no weight exceeds max(1, n^−θ) for n pages and their sum is below
// n·max(1, n^−θ): the check is that closed form, not a pass over the
// weights.
func (p Profile) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &ProfileError{Profile: p.Name, Field: field, Detail: fmt.Sprintf(format, args...)}
	}
	n := p.FootprintPages
	switch {
	case n < 0 || n == 0 && p.Records == nil:
		return bad("FootprintPages", "%d, want > 0", n)
	case n > math.MaxInt32:
		return bad("FootprintPages", "%d, want ≤ %d", n, math.MaxInt32)
	case p.Pattern < PatternStream || p.Pattern > PatternMixed:
		return bad("Pattern", "unknown pattern %d", int(p.Pattern))
	case !(p.WriteFrac >= 0 && p.WriteFrac <= 1):
		return bad("WriteFrac", "%v, want in [0, 1]", p.WriteFrac)
	case !(p.StreamFrac >= 0 && p.StreamFrac <= 1):
		return bad("StreamFrac", "%v, want in [0, 1]", p.StreamFrac)
	case p.BubbleMean < 0 || p.BubbleMean > maxBubbleMean:
		return bad("BubbleMean", "%d, want in [0, %d]", p.BubbleMean, maxBubbleMean)
	case math.IsNaN(p.ZipfTheta) || math.IsInf(p.ZipfTheta, 0):
		return bad("ZipfTheta", "%v, want a finite value", p.ZipfTheta)
	case math.IsInf(float64(n)*math.Pow(float64(n), -p.ZipfTheta), 0):
		return bad("ZipfTheta", "%v: the page weights of %d pages overflow float64", p.ZipfTheta, n)
	}
	return nil
}

// permutation returns the deterministic rank→page scattering for this
// profile. Popularity rank r (0 = hottest) maps to page perm[r], so that hot
// pages are spread across the footprint instead of clustering at low
// addresses (which would conflate popularity with spatial locality).
func (p Profile) permutation() []int {
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return rng.Perm(p.FootprintPages)
}

// PageWeights returns the unnormalised popularity weight of every page in
// the footprint (indexed by page number). Weight of the page at popularity
// rank r is 1/(r+1)^ZipfTheta.
func (p Profile) PageWeights() []float64 {
	w := make([]float64, p.FootprintPages)
	perm := p.permutation()
	for r := 0; r < p.FootprintPages; r++ {
		w[perm[r]] = math.Pow(float64(r+1), -p.ZipfTheta)
	}
	return w
}

// CoverageOfTopFraction returns the fraction of page-granularity accesses
// captured by the top `frac` most popular pages (analytically, from the
// generator's weights). This is the quantity behind the paper's §8.2
// scaling observation (e.g. libquantum-like top 25% ≈ 26%, soplex-like top
// 25% ≈ 85%).
func (p Profile) CoverageOfTopFraction(frac float64) float64 {
	if p.FootprintPages == 0 {
		return 0
	}
	n := int(math.Round(frac * float64(p.FootprintPages)))
	if n <= 0 {
		return 0
	}
	if n >= p.FootprintPages {
		return 1
	}
	// Ranks are already sorted by construction: rank r has weight
	// 1/(r+1)^theta.
	var top, total float64
	for r := 0; r < p.FootprintPages; r++ {
		w := math.Pow(float64(r+1), -p.ZipfTheta)
		total += w
		if r < n {
			top += w
		}
	}
	return top / total
}

// HottestPages returns page numbers sorted from most to least popular —
// ground truth for validating the profiling-based mapper.
func (p Profile) HottestPages() []int {
	w := p.PageWeights()
	pages := make([]int, len(w))
	for i := range pages {
		pages[i] = i
	}
	sort.SliceStable(pages, func(a, b int) bool { return w[pages[a]] > w[pages[b]] })
	return pages
}

// generator is the Reader implementation behind NewReader.
type generator struct {
	p      Profile
	rng    lagFib    // the record stream's PRNG, held by value
	cum    []float64 // cumulative page weights for Zipf sampling
	total  float64   // cum's last entry
	guide  []int32   // guide table over cum (newGuide); shared by clones
	scale  float64   // buckets per unit of cumulative weight
	pos    uint64    // current line index for sequential runs
	stride uint64
}

// CloneReader implements trace.CloneableReader: the clone continues the
// exact record stream from the generator's current position. It is a copy
// of the generator: the PRNG state is a value, so the copy holds the same
// state and draws the same numbers, and the popularity and guide tables are
// shared (immutable after construction).
func (g *generator) CloneReader() trace.Reader {
	ng := *g
	return &ng
}

// NewReader returns an infinite trace.Reader for the profile. Readers with
// the same profile and seed produce identical streams. Record-backed
// profiles replay their records in a loop (the seed is ignored). It panics
// with Validate's error on a synthetic profile Validate rejects; code that
// takes profiles from outside the program validates them first, as
// sim.NewSystem and spec decoding do.
func (p Profile) NewReader(seed int64) trace.Reader {
	if p.Records != nil {
		return &trace.SliceReader{Records: p.Records, Loop: true}
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &generator{
		p:      p,
		rng:    newLagFib(seed ^ int64(nameHash(p.Name))),
		stride: 1,
	}
	if p.StrideLines > 0 {
		g.stride = uint64(p.StrideLines)
	}
	if p.Pattern != PatternStream {
		g.cum = p.PageWeights()
		sum := 0.0
		for i, x := range g.cum {
			sum += x
			g.cum[i] = sum
		}
		g.total = sum
		g.guide, g.scale = newGuide(g.cum)
	}
	return g
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// newGuide builds the guide table of the cumulative weights cum (Chen &
// Asau, 1974): one bucket per page, bucket(x) = int(x·scale) with scale =
// n/total, and guide[j] = the first page whose bucket is ≥ j, clamped to
// n−1, for j = 0 … n+1. A draw r ∈ [0, total] lands in bucket(r) ≤ n (the
// product may round up to n). Multiplying by a positive constant and
// truncating never decrease, so every page before guide[bucket(r)] has
// cum < r and the page at guide[bucket(r)+1], if below n−1, has cum > r:
// the first page with cum ≥ r lies between the two (DESIGN.md §17).
func newGuide(cum []float64) (guide []int32, scale float64) {
	n := len(cum)
	scale = float64(n) / cum[n-1]
	guide = make([]int32, n+2)
	j := 0
	for i, c := range cum {
		for b := int(c * scale); j <= b && j < len(guide); j++ {
			guide[j] = int32(i)
		}
	}
	for ; j < len(guide); j++ {
		guide[j] = int32(n - 1)
	}
	return guide, scale
}

// samplePage draws a page according to the popularity distribution.
func (g *generator) samplePage() int {
	return g.pageAt(g.rng.Float64() * g.total)
}

// pageAt returns the first page whose cumulative weight is ≥ r (the last
// page if none is), binary-searching only the guide table's bracket of r.
func (g *generator) pageAt(r float64) int {
	j := int(r * g.scale)
	lo, hi := int(g.guide[j]), int(g.guide[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// maxBubbleMean bounds BubbleMean m so that Intn's argument m+1 and the
// longest run bubble draws, m/2 + m, fit an int, and so does that record's
// instruction count (trace.Record.Instructions, one more).
const maxBubbleMean = math.MaxInt / 3 * 2

// bubble draws the non-memory instruction count before the next access:
// uniform in [BubbleMean/2, 3*BubbleMean/2] (mean = BubbleMean), or exactly
// 0 when BubbleMean is 0.
func (g *generator) bubble() int {
	m := g.p.BubbleMean
	if m <= 0 {
		return 0
	}
	lo := m / 2
	return lo + g.rng.Intn(m+1)
}

// Next implements trace.Reader; it never returns an error.
func (g *generator) Next() (trace.Record, error) {
	totalLines := uint64(g.p.FootprintPages) * LinesPerPage
	var line uint64
	switch g.p.Pattern {
	case PatternStream:
		line = g.pos
		g.pos = (g.pos + g.stride) % totalLines
	case PatternRandom:
		page := g.samplePage()
		line = uint64(page)*LinesPerPage + uint64(g.rng.Intn(LinesPerPage))
	case PatternMixed:
		if g.rng.Float64() < g.p.StreamFrac {
			g.pos = (g.pos + 1) % totalLines
		} else {
			page := g.samplePage()
			g.pos = uint64(page)*LinesPerPage + uint64(g.rng.Intn(LinesPerPage))
		}
		line = g.pos
	}
	return trace.Record{
		Bubble: g.bubble(),
		Addr:   line * LineBytes,
		Write:  g.rng.Float64() < g.p.WriteFrac,
	}, nil
}
