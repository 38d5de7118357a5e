// Package lazyrand holds a math/rand source that draws exactly what
// rand.NewSource(seed) draws, for every seed and every draw, but seeds in
// O(1).
//
// The stdlib source is an additive lagged-Fibonacci generator over a
// 607-word state. Its Seed fills all 607 words up front: word i is three
// consecutive values of the Lehmer chain x[n+1] = 48271·x[n] mod (2^31−1),
// packed and XORed with a constant table, ~1,850 chain steps in all. gpuFI
// re-seeds per fault spec and per injection and then draws three to six
// times, touching six to twelve words. Because the chain has a closed form
// (x[n] = 48271^n·x[0]), any one word can be produced on its own from the
// seed with one multiplication by a precomputed power and two steps; Source
// does that on first touch of each word and never computes the rest.
//
// Neither table is copied from the stdlib: both are derived when the
// package initialises, the constant one from the output of a stock
// rand.NewSource. A stdlib that changed its generator would therefore not
// be silently forked — TestSourceMatchesStdlib would fail.
package lazyrand

import "math/rand"

const (
	vecLen = 607 // state words
	tapLag = 273 // out[n] = out[n-607] + out[n-273]

	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// The stdlib discards 20 chain values, then spends three per word.
	lehmerSkip = 20
)

// chainPow[i] is 48271^(21+3i) mod 2^31−1: times the seed, the first of the
// three chain values of state word i. cooked is the stdlib's additive
// constant table (math/rand's rngCooked).
var chainPow, cooked = deriveTables()

func deriveTables() (pow [vecLen]uint64, cook [vecLen]int64) {
	p := uint64(1)
	for k := 0; k <= lehmerSkip; k++ {
		p = p * lehmerA % lehmerM
	}
	const cube = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	for i := range pow {
		pow[i] = p
		p = p * cube % lehmerM
	}

	// Recover a stock source's seeded state from its first 607 outputs by
	// running the recurrence backwards: with s[607+n] = out[n], the word
	// read as the out[n-607] term of draw n is s[n] = s[n+607] − s[n+334],
	// and every s[n+334] below 607 was itself recovered at a later n.
	const probe = 1
	src := rand.NewSource(probe).(rand.Source64)
	var s [2 * vecLen]int64
	for n := 0; n < vecLen; n++ {
		s[vecLen+n] = int64(src.Uint64())
	}
	for n := vecLen - 1; n >= 0; n-- {
		s[n] = s[n+vecLen] - s[n+vecLen-tapLag]
	}
	// Draw n feeds from (and overwrites) word 333−n mod 607.
	x0 := chainStart(probe)
	for n, v := range s[:vecLen] {
		i := (2*vecLen - tapLag - 1 - n) % vecLen
		cook[i] = v ^ chainWord(x0, pow[i])
	}
	return pow, cook
}

// chainStart maps a seed to the Lehmer chain's start value in [1, 2^31−2],
// as the stdlib does.
func chainStart(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// chainWord packs the three chain values that start at x0·pow.
func chainWord(x0, pow uint64) int64 {
	a := x0 * pow % lehmerM
	b := a * lehmerA % lehmerM
	c := b * lehmerA % lehmerM
	return int64(a<<40 ^ b<<20 ^ c)
}

// Source is a rand.Source64 with the stream of rand.NewSource. The zero
// value is not seeded; use New. Not safe for concurrent use.
type Source struct {
	x0        uint64 // Lehmer chain start of the current seed
	tap, feed int
	have      [(vecLen + 63) / 64]uint64 // bit i: vec[i] is materialised
	vec       [vecLen]int64
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in,
// without computing any of it.
func (s *Source) Seed(seed int64) {
	s.x0 = chainStart(seed)
	s.tap, s.feed = 0, vecLen-tapLag
	s.have = [len(s.have)]uint64{}
}

// word returns state word i, computing its seeded value on first touch.
func (s *Source) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.have[i>>6]&bit == 0 {
		s.have[i>>6] |= bit
		s.vec[i] = chainWord(s.x0, chainPow[i]) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += vecLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += vecLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
