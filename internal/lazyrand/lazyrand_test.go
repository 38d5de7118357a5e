package lazyrand

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// pair drives a lazily seeded generator and a stock one through the same
// calls and fails on the first value that differs.
type pair struct {
	t    *testing.T
	seed int64
	n    int // calls made since the last seeding
	lazy *rand.Rand
	std  *rand.Rand
}

func newPair(t *testing.T, seed int64) *pair {
	return &pair{t: t, seed: seed, lazy: rand.New(New(seed)), std: rand.New(rand.NewSource(seed))}
}

func (p *pair) same(op string, got, want any) {
	p.t.Helper()
	p.n++
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("seed %d, call %d (%s): lazy source gave %v, rand.NewSource %v", p.seed, p.n, op, got, want)
	}
}

func (p *pair) reseed(seed int64) {
	p.seed, p.n = seed, 0
	p.lazy.Seed(seed)
	p.std.Seed(seed)
}

// step makes one call chosen by op; arg sizes the bounded ones.
func (p *pair) step(op byte, arg uint32) {
	p.t.Helper()
	switch op % 10 {
	case 0:
		p.same("Int63", p.lazy.Int63(), p.std.Int63())
	case 1:
		p.same("Uint64", p.lazy.Uint64(), p.std.Uint64())
	case 2:
		n := int64(arg)<<17 | 1 // crosses 2^31: both Int63n branches
		p.same("Int63n", p.lazy.Int63n(n), p.std.Int63n(n))
	case 3:
		n := int32(arg>>1) | 1
		p.same("Int31n", p.lazy.Int31n(n), p.std.Int31n(n))
	case 4:
		n := int(arg>>1) | 1
		p.same("Intn", p.lazy.Intn(n), p.std.Intn(n))
	case 5:
		p.same("Float64", p.lazy.Float64(), p.std.Float64())
	case 6:
		n := int(arg % 97)
		p.same("Perm", p.lazy.Perm(n), p.std.Perm(n))
	case 7:
		a, b := make([]int, arg%53), make([]int, arg%53)
		p.lazy.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j]-i+1, a[i]+j })
		p.std.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j]-i+1, b[i]+j })
		p.same("Shuffle", a, b)
	case 8:
		for i := 0; i < vecLen; i++ { // a whole turn of the state vector
			p.same("Uint64 burst", p.lazy.Uint64(), p.std.Uint64())
		}
	case 9:
		p.reseed(int64(arg)*0x9E3779B9 - int64(p.n))
	}
}

func edgeSeeds() []int64 {
	const m = lehmerM
	return []int64{0, 1, -1, 2, m, -m, m - 1, m + 1, -m - 1, -m + 1, 2 * m, -2 * m, 3*m + 5,
		m * m, -m * m, 1 << 31, 1 << 32, -(1 << 32), 89482311, 89482311 - m,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		math.MaxInt64 / m * m, math.MinInt64 / m * m}
}

// TestSourceMatchesStdlib is the package's whole contract: for any seed and
// any sequence of calls, rand.New(New(seed)) returns what
// rand.New(rand.NewSource(seed)) returns.
func TestSourceMatchesStdlib(t *testing.T) {
	t.Run("edge seeds across two state turns", func(t *testing.T) {
		for _, seed := range edgeSeeds() {
			p := newPair(t, seed)
			for i := 0; i < 2*vecLen+50; i++ { // crosses draws 607 and 1214
				p.step(byte(i&1), 0)
			}
		}
	})
	t.Run("random seeds", func(t *testing.T) {
		pick := rand.New(rand.NewSource(14))
		counts := []int{1, 3, 6, tapLag, vecLen - tapLag, vecLen - 1, vecLen, vecLen + 1, 2*vecLen + 1}
		for n := 0; n < 12000; n++ {
			seed := int64(pick.Uint64())
			if n%3 == 0 {
				seed >>= uint(pick.Intn(64)) // small magnitudes too
			}
			p := newPair(t, seed)
			for i, draws := 0, counts[n%len(counts)]; i < draws; i++ {
				p.step(byte(i&1), 0)
			}
		}
	})
	t.Run("every call kind", func(t *testing.T) {
		pick := rand.New(rand.NewSource(607))
		for n := 0; n < 300; n++ {
			p := newPair(t, int64(pick.Uint64()))
			for i := 0; i < 400; i++ {
				op := byte(pick.Intn(10))
				if op == 8 && i%16 != 0 {
					op = 2
				}
				p.step(op, pick.Uint32())
			}
		}
	})
	t.Run("re-seed mid-stream", func(t *testing.T) {
		p := newPair(t, 42)
		for _, draws := range []int{0, 1, 5, 333, 334, 606, 607, 608, 1300} {
			for i := 0; i < draws; i++ {
				p.step(0, 0)
			}
			p.reseed(int64(draws) * 7919)
			p.step(1, 0)
			p.reseed(p.seed) // same seed again: the stream restarts
		}
	})
	t.Run("two generators interleaved", func(t *testing.T) {
		a, b := newPair(t, 5), newPair(t, -5)
		for i := 0; i < 3*vecLen; i++ {
			a.step(byte(i%8), uint32(i)*2654435761)
			if i%3 != 0 {
				b.step(byte((i+3)%8), uint32(i)*40503)
			}
			if i == vecLen {
				a.reseed(b.seed) // b's stream from its start, while b is mid-way
			}
		}
	})
}

// TestSeedTouchesOnlyTheWordsDrawn: the cost contract. A seeding
// materialises nothing and each draw at most two words.
func TestSeedTouchesOnlyTheWordsDrawn(t *testing.T) {
	s := New(99)
	count := func() (n int) {
		for i := 0; i < vecLen; i++ {
			if s.have[i>>6]>>(i&63)&1 != 0 {
				n++
			}
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("a fresh seeding materialised %d words", n)
	}
	for d := 1; d <= 3; d++ {
		s.Uint64()
		if n := count(); n != 2*d {
			t.Fatalf("after %d draws %d words are materialised, want %d", d, n, 2*d)
		}
	}
	s.Seed(100)
	if n := count(); n != 0 {
		t.Fatalf("re-seeding left %d words materialised", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Seed(7); s.Int63() }); allocs != 0 {
		t.Fatalf("seed + draw allocates %.0f objects", allocs)
	}
}

// FuzzSourceMatchesStdlib replays an arbitrary call script on both
// generators. Each op is five bytes: the call kind and a 32-bit argument.
func FuzzSourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), []byte{8, 0, 0, 0, 0, 8, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add(int64(-lehmerM), []byte{2, 255, 255, 255, 255, 6, 96, 0, 0, 0, 7, 52, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 5*64 {
			script = script[:5*64] // bursts are 607 draws each; keep a run short
		}
		p := newPair(t, seed)
		for ; len(script) >= 5; script = script[5:] {
			p.step(script[0], binary.LittleEndian.Uint32(script[1:]))
		}
		p.step(0, 0)
	})
}

var sink int64

// BenchmarkSeedAndDraw is the per-spec pattern: seed, then three draws.
func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		r := rand.New(New(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			sink += r.Int63n(1<<40) + r.Int63n(512) + r.Int63()
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			sink += r.Int63n(1<<40) + r.Int63n(512) + r.Int63()
		}
	})
}

// BenchmarkSteadyDraw is the price of laziness once the state is full: the
// per-draw cost against the stdlib's, no seeding in the loop.
func BenchmarkSteadyDraw(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		s := New(1)
		for i := 0; i < b.N; i++ {
			sink += s.Int63()
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			sink += s.Int63()
		}
	})
}
