package workload

import "math/rand"

// The constants of math/rand's source: an additive lagged Fibonacci
// generator x_n = x_{n−607} + x_{n−273} mod 2^64.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// lagFib is a by-value copy of math/rand's default source together with the
// two Rand methods the generator draws through, Float64 and Intn, written as
// math/rand writes them. Go's compatibility promise freezes that source's
// value stream, so lagFib yields exactly the draws rand.New(rand.NewSource(
// seed)) yields (TestLagFibMatchesMathRand). Being a plain value, it is
// copied by assignment: a generator forks in O(1), with no replay.
type lagFib struct {
	tap, feed int
	vec       [rngLen]int64
}

// newLagFib returns the source rand.NewSource(seed) starts from. It takes
// the seeded state from that source itself instead of copying its 607-word
// seeding table: after rngLen draws every word of the state has been
// overwritten by one draw and tap and feed are back at their start, so the
// draws are that later state, and undoing the recurrence,
// x_{n−607} = x_n − x_{n−273}, from the last draw back to the first recovers
// the seeded one. The undo of a step reads its tap word as the step read
// it: a step writes only its feed word, and tap ≠ feed.
func newLagFib(seed int64) lagFib {
	src := rand.NewSource(seed).(rand.Source64)
	s := lagFib{tap: 0, feed: rngLen - rngTap}
	for i := 0; i < rngLen; i++ {
		s.step()
		s.vec[s.feed] = int64(src.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	return s
}

// step moves tap and feed to the next step's words, as the source does.
func (s *lagFib) step() {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 is rngSource.Uint64.
func (s *lagFib) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63, which rand.Rand.Int63 calls.
func (s *lagFib) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Float64 is rand.Rand.Float64, resampling the one draw that rounds to 1.
func (s *lagFib) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn: Int31n below 2^31, Int63n from there (a profile's
// BubbleMean has no upper bound). It panics if n ≤ 0.
func (s *lagFib) Intn(n int) int {
	if n <= 0 {
		panic("workload: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is rand.Rand.Int31n for n > 0: a mask for a power of two, else
// rejection of the draws above the largest multiple of n, then a modulus.
func (s *lagFib) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// int63n is rand.Rand.Int63n for n > 0, int31n's 63-bit twin.
func (s *lagFib) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}
