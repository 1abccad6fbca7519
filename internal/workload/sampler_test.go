package workload

import (
	"errors"
	"math"
	"testing"

	"clrdram/internal/trace"
)

// refPage is the reference sampler: a binary search over all of cum for
// the first page whose cumulative weight is ≥ r, or the last page if none
// is.
func refPage(cum []float64, r float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func newGen(t testing.TB, p Profile, seed int64) *generator {
	t.Helper()
	g, ok := p.NewReader(seed).(*generator)
	if !ok || g.cum == nil {
		t.Fatalf("%s: NewReader built no popularity table", p.Name)
	}
	return g
}

// checkDraws draws n pages from g and compares each with refPage on the
// same draw, taken from a twin of g's PRNG.
func checkDraws(t testing.TB, g *generator, n int) {
	t.Helper()
	twin := g.rng
	for i := 0; i < n; i++ {
		got := g.samplePage()
		r := twin.Float64() * g.total
		if want := refPage(g.cum, r); got != want {
			t.Fatalf("%s: draw %d (r=%v): samplePage = %d, reference = %d", g.p.Name, i, r, got, want)
		}
	}
}

// checkPoints compares pageAt with refPage at every page boundary of g's
// table (r = cum[i] and its two neighbouring floats), at 0 and at total.
func checkPoints(t testing.TB, g *generator) {
	t.Helper()
	check := func(r float64) {
		if r < 0 || r > g.total {
			return
		}
		if got, want := g.pageAt(r), refPage(g.cum, r); got != want {
			t.Fatalf("%s: pageAt(%v) = %d, reference = %d", g.p.Name, r, got, want)
		}
	}
	check(0)
	check(g.total)
	for _, c := range g.cum {
		check(c)
		check(math.Nextafter(c, 0))
		check(math.Nextafter(c, math.Inf(1)))
	}
}

// TestSamplePageMatchesReference draws a million pages from every built-in
// profile that samples pages (random and mixed) at two seeds and requires
// the guide-table search to return exactly what the full-range search
// returns for the same draw.
func TestSamplePageMatchesReference(t *testing.T) {
	const draws = 1_000_000
	for _, p := range All() {
		if p.Pattern == PatternStream {
			continue
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7} {
				checkDraws(t, newGen(t, p, seed), draws)
			}
		})
	}
}

// TestSamplePageEdges covers the tables the built-in profiles do not reach:
// one page, uniform weights, a steep skew whose tail weights stop moving
// the cumulative sum, and draws at the ends of the range — r = total, which
// a draw u·total that rounds up to total would produce.
func TestSamplePageEdges(t *testing.T) {
	for _, p := range []Profile{
		{Name: "one-page", Pattern: PatternRandom, FootprintPages: 1},
		{Name: "one-page-skewed", Pattern: PatternMixed, FootprintPages: 1, ZipfTheta: 3, StreamFrac: 0.5},
		{Name: "uniform", Pattern: PatternRandom, FootprintPages: 1000},
		{Name: "theta-3", Pattern: PatternRandom, FootprintPages: 4096, ZipfTheta: 3},
		{Name: "theta-30", Pattern: PatternRandom, FootprintPages: 300, ZipfTheta: 30},
		{Name: "theta-negative", Pattern: PatternRandom, FootprintPages: 2048, ZipfTheta: -2},
	} {
		g := newGen(t, p, 1)
		checkPoints(t, g)
		checkDraws(t, g, 20_000)
		if got := g.pageAt(g.total); got != refPage(g.cum, g.total) {
			t.Fatalf("%s: pageAt(total) = %d", p.Name, got)
		}
	}
}

// FuzzSamplePage builds a random-pattern profile from (footprint, θ, seed)
// and requires either a Validate rejection (a *ProfileError, and NewReader
// panicking with it) or a sampler that agrees with the full-range search on
// every boundary point and on a run of draws. It must never panic otherwise.
func FuzzSamplePage(f *testing.F) {
	f.Add(1, 0.0, int64(1))
	f.Add(1000, 0.0, int64(1))
	f.Add(4096, 3.0, int64(7))
	f.Add(300, 30.0, int64(3))
	f.Add(320, 0.75, int64(1))
	f.Add(4096, -200.0, int64(1))
	f.Add(0, 0.5, int64(1))
	f.Add(64, math.NaN(), int64(2))
	f.Fuzz(func(t *testing.T, footprint int, theta float64, seed int64) {
		if footprint > 4096 {
			return
		}
		p := Profile{Name: "fuzz", Pattern: PatternRandom, FootprintPages: footprint, ZipfTheta: theta}
		if err := p.Validate(); err != nil {
			var pe *ProfileError
			if !errors.As(err, &pe) {
				t.Fatalf("Validate returned %T, want *ProfileError", err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("NewReader accepted a profile Validate rejects")
				}
			}()
			p.NewReader(seed)
			return
		}
		g := newGen(t, p, seed)
		checkPoints(t, g)
		checkDraws(t, g, 512)
	})
}

func TestValidate(t *testing.T) {
	ok := []Profile{
		{Name: "minimal", FootprintPages: 1},
		{Name: "one-page-steep", FootprintPages: 1, ZipfTheta: -200},
		{Name: "theta-large", Pattern: PatternRandom, FootprintPages: 64, ZipfTheta: 1e300},
		{Name: "bounds", Pattern: PatternMixed, FootprintPages: 64, WriteFrac: 1, StreamFrac: 1},
		{Name: "bubble-2^40", FootprintPages: 1, BubbleMean: 1 << 40},
		{Name: "bubble-max", FootprintPages: 1, BubbleMean: math.MaxInt / 3 * 2},
	}
	if p, err := FromRecords("captured", []trace.Record{{Addr: 0x1000}}); err != nil {
		t.Fatal(err)
	} else {
		ok = append(ok, p, Profile{Name: "records-no-footprint", Records: p.Records})
	}
	ok = append(ok, All()...)
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}

	for _, c := range []struct {
		field string
		p     Profile
	}{
		{"FootprintPages", Profile{Name: "x"}},
		{"FootprintPages", Profile{FootprintPages: -1, Records: []trace.Record{{}}}},
		{"FootprintPages", Profile{FootprintPages: math.MaxInt32 + 1}},
		{"Pattern", Profile{FootprintPages: 1, Pattern: PatternMixed + 1}},
		{"Pattern", Profile{FootprintPages: 1, Pattern: -1}},
		{"WriteFrac", Profile{FootprintPages: 1, WriteFrac: -0.1}},
		{"WriteFrac", Profile{FootprintPages: 1, WriteFrac: math.NaN()}},
		{"StreamFrac", Profile{FootprintPages: 1, StreamFrac: 1.5}},
		{"BubbleMean", Profile{FootprintPages: 1, BubbleMean: -1}},
		{"BubbleMean", Profile{FootprintPages: 1, BubbleMean: math.MaxInt}},         // Intn(m+1) panics
		{"BubbleMean", Profile{FootprintPages: 1, BubbleMean: math.MaxInt / 4 * 3}}, // m/2 + m wraps negative
		{"ZipfTheta", Profile{FootprintPages: 1, ZipfTheta: math.NaN()}},
		{"ZipfTheta", Profile{FootprintPages: 1, ZipfTheta: math.Inf(-1)}},
		{"ZipfTheta", Profile{FootprintPages: 32768, ZipfTheta: -200}},
		{"ZipfTheta", Profile{FootprintPages: 4096, ZipfTheta: -86}},
	} {
		err := c.p.Validate()
		var pe *ProfileError
		if !errors.As(err, &pe) || pe.Field != c.field {
			t.Errorf("%+v: Validate = %v, want a *ProfileError on %s", c.p, err, c.field)
		}
	}
}
