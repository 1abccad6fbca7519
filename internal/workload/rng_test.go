package workload

import (
	"math"
	"math/rand"
	"testing"
)

// countedSource counts the primitive draws of the reference source, so the
// identity test can see that Intn's rejection loop ran.
type countedSource struct {
	rand.Source64
	n int
}

func (s *countedSource) Int63() int64   { s.n++; return s.Source64.Int63() }
func (s *countedSource) Uint64() uint64 { s.n++; return s.Source64.Uint64() }

// TestLagFibMatchesMathRand draws a million interleaved Float64 and Intn
// values per seed from lagFib and from rand.New(rand.NewSource(seed)) and
// requires every one to be equal. The seeds cover 0 and the values the
// source's seeding reduces modulo 2^31−1 to 0, negative seeds and both
// int64 extremes. The Intn arguments take each of math/rand's paths: a
// power of two (a mask), 2^30+1 (Int31n's rejection loop, which discards
// almost half its draws), 2^31−1 (the largest Int31n argument), and 2^31
// and 2^40+1 (Intn's Int63n branch).
func TestLagFibMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	args := []int{64, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1 << 40, 1<<40 + 1, 1, 3}
	for _, seed := range []int64{0, 1, 7, -1, 1<<31 - 1, 2 * (1<<31 - 1), math.MinInt64, math.MaxInt64} {
		ref := &countedSource{Source64: rand.NewSource(seed).(rand.Source64)}
		want := rand.New(ref)
		got := newLagFib(seed)
		intns := 0
		for i := 0; i < draws; i++ {
			if i%3 == 0 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d, draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
				}
				continue
			}
			n := args[(i/3+i)%len(args)]
			intns++
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d, draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
		if ref.n-draws < intns/20 {
			t.Errorf("seed %d: %d primitive draws for %d values: Intn's rejection loop barely ran", seed, ref.n, draws)
		}
		if g, w := got.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("seed %d: next Uint64 = %#x, math/rand %#x", seed, g, w)
		}
	}
}

// TestCloneReaderContinuesStream clones a generator after 0, 1, 606, 607,
// 608 and 100,000 records — around the source's 607-word lag, where a
// clone that shared or misplaced state words would first diverge — and
// requires the clone, the original and a never-cloned reader of the same
// seed to agree on the next 100,000 records. The profiles cover the three
// patterns and a BubbleMean whose Intn argument takes the Int63n branch.
func TestCloneReaderContinuesStream(t *testing.T) {
	const next = 100_000
	mcf, _ := ByName("429.mcf-like")
	perl, _ := ByName("400.perlbench-like")
	stream, _ := ByName("stream_03")
	wide := Profile{Name: "wide-bubbles", Pattern: PatternMixed, FootprintPages: 512,
		ZipfTheta: 0.5, StreamFrac: 0.5, BubbleMean: 1 << 40, WriteFrac: 0.3}
	for _, p := range []Profile{mcf, perl, stream, wide} {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, at := range []int{0, 1, 606, 607, 608, 100_000} {
				orig, ref := p.NewReader(7), p.NewReader(7)
				for i := 0; i < at; i++ {
					orig.Next()
					ref.Next()
				}
				clone := orig.(*generator).CloneReader()
				for i := 0; i < next; i++ {
					c, _ := clone.Next()
					o, _ := orig.Next()
					r, _ := ref.Next()
					if c != r || o != r {
						t.Fatalf("cloned after %d records, record %d: clone %+v, original %+v, reference %+v", at, i, c, o, r)
					}
				}
			}
		})
	}
}
