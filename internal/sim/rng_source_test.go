package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The in-repo source must be indistinguishable from math/rand's: the
// standard library's seeded path is the reference, kept here in test code
// the same way the naive scheduler in differential_test.go is.

// schrage is the standard library's seeding step, x' = 48271·x mod
// (2³¹−1) by Schrage's method, copied as the reference for mulMod31.
func schrage(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += m31
	}
	return x
}

func TestMulMod31MatchesSchrage(t *testing.T) {
	t.Parallel()
	xs := []int32{1, 2, 3, 3399, 44487, 44488, 44489, 48271, 89482311, 1 << 30, m31 - 2, m31 - 1}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100000; i++ {
		xs = append(xs, 1+rng.Int31n(m31-1))
	}
	for _, x := range xs {
		want := schrage(x)
		if got := mulMod31(uint64(x), lehmerA); got != uint64(want) {
			t.Fatalf("mulMod31(%d, A) = %d, Schrage gives %d", x, got, want)
		}
		// The lane stride must equal three sequential Schrage steps.
		want3 := schrage(schrage(want))
		if got := mulMod31(uint64(x), lehmerA3); got != uint64(want3) {
			t.Fatalf("mulMod31(%d, A³) = %d, three Schrage steps give %d", x, got, want3)
		}
	}
}

// sourceSeeds are the edge seeds of the differential test: zero (which
// the seeder replaces with 89482311), ±1, the modulus and its
// neighbours, the replacement constant itself, and the int64 extremes
// (whose remainder signs differ).
var sourceSeeds = []int64{
	0, -1, 1, 2, m31 - 1, m31, m31 + 1, 1 << 31, -m31, 89482311,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
}

// TestRNGSourceMatchesStdlib is the differential test for the ported
// source: for every edge seed and 2000 pseudo-random ones, 2000 rounds
// through each *rand.Rand method the simulation uses must return exactly
// what rand.New(rand.NewSource(seed)) returns. Reseeding through
// Rand.Seed must match too.
func TestRNGSourceMatchesStdlib(t *testing.T) {
	t.Parallel()
	seeds := append([]int64(nil), sourceSeeds...)
	gen := rand.New(rand.NewSource(2007))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for _, seed := range seeds {
		src := new(source)
		src.Seed(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		if err := compareRands(got, want, rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Rand.Seed reseeds the source in place: the port's Seed must reset
	// the register as completely as the standard library's.
	src := new(source)
	src.Seed(7)
	got, want := rand.New(src), rand.New(rand.NewSource(7))
	for _, seed := range sourceSeeds {
		got.Seed(seed)
		want.Seed(seed)
		if err := compareRands(got, want, 200); err != nil {
			t.Fatalf("reseed %d: %v", seed, err)
		}
	}
}

// compareRands draws rounds of Int63, Uint64, Float64, Intn, Int31n and
// Perm from both generators and reports the first divergence.
func compareRands(got, want *rand.Rand, rounds int) error {
	for i := 0; i < rounds; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Errorf("round %d: Int63 = %d, stdlib %d", i, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Errorf("round %d: Uint64 = %d, stdlib %d", i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			return fmt.Errorf("round %d: Float64 = %v, stdlib %v", i, g, w)
		}
		n := 1 + i%1000
		if g, w := got.Intn(n), want.Intn(n); g != w {
			return fmt.Errorf("round %d: Intn(%d) = %d, stdlib %d", i, n, g, w)
		}
		// A bound above 2³⁰ exercises Int31n's rejection loop.
		m := int32(1 + i%7)
		if i%2 == 1 {
			m = 1<<30 + int32(i)
		}
		if g, w := got.Int31n(m), want.Int31n(m); g != w {
			return fmt.Errorf("round %d: Int31n(%d) = %d, stdlib %d", i, m, g, w)
		}
		k := i % 9
		g, w := got.Perm(k), want.Perm(k)
		for j := range g {
			if g[j] != w[j] {
				return fmt.Errorf("round %d: Perm(%d) = %v, stdlib %v", i, k, g, w)
			}
		}
	}
	return nil
}

// TestRNGDerivationUnchanged pins the stream-seed derivation against
// its original definition, FNV-1a over fmt's "%d/%s" rendering fed to
// the standard library's source: every (seed, stream) pair must keep
// drawing the sequence it always has.
func TestRNGDerivationUnchanged(t *testing.T) {
	t.Parallel()
	streams := []string{"", "planner", "system", "fleet/soak/h00042", "chaos/jobs/3", "ablation/reward/paper 100:50", "ünïcode"}
	for _, seed := range sourceSeeds {
		for _, stream := range streams {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d/%s", seed, stream)
			want := rand.New(rand.NewSource(int64(h.Sum64())))
			if err := compareRands(RNG(seed, stream), want, 100); err != nil {
				t.Fatalf("RNG(%d, %q): %v", seed, stream, err)
			}
		}
	}
}

// lazyMethods drive every *rand.Rand method across a stopping point, a
// few calls each, so a boundary inside a multi-draw method (Perm, a
// rejected Int31n, Read's 7-byte chunks) is crossed mid-call too.
var lazyMethods = []struct {
	name string
	call func(r *rand.Rand) any
}{
	{"Int63", func(r *rand.Rand) any { return r.Int63() }},
	{"Uint32", func(r *rand.Rand) any { return r.Uint32() }},
	{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
	{"Int31", func(r *rand.Rand) any { return r.Int31() }},
	{"Int", func(r *rand.Rand) any { return r.Int() }},
	{"Int63n", func(r *rand.Rand) any { return r.Int63n(1<<62 + 1) }},
	{"Int31n", func(r *rand.Rand) any { return r.Int31n(1<<30 + 1) }},
	{"Intn", func(r *rand.Rand) any { return r.Intn(1000) }},
	{"Float64", func(r *rand.Rand) any { return r.Float64() }},
	{"Float32", func(r *rand.Rand) any { return r.Float32() }},
	{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() }},
	{"ExpFloat64", func(r *rand.Rand) any { return r.ExpFloat64() }},
	{"Perm", func(r *rand.Rand) any { return fmt.Sprint(r.Perm(9)) }},
	{"Shuffle", func(r *rand.Rand) any {
		s := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return fmt.Sprint(s)
	}},
	{"Read", func(r *rand.Rand) any {
		var b [11]byte
		r.Read(b[:])
		return b
	}},
}

// lazyStops are the draw counts the lazy-register differential test
// stops at: the first draws, the last lazy draw (272) and the register
// build (273), the end of the first block (333), the stdlib's own index
// wrap (606/607), the end of the first full block (940) and a draw
// well past every boundary.
var lazyStops = []int{0, 1, 272, 273, 274, 333, 334, 606, 607, 608, 940, 941, 1000}

// drawTo advances two freshly seeded generators to source draw stop,
// comparing every draw on the way (Rand.Uint64 is exactly one source
// draw).
func drawTo(got, want *rand.Rand, stop int) error {
	for i := 0; i < stop; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Errorf("draw %d = %d, stdlib %d", i, g, w)
		}
	}
	return nil
}

// TestRNGLazyBoundary is the differential test for the lazy register:
// at every stopping point across the lazy window and the block
// boundaries, every *rand.Rand method must return what the standard
// library's seeded source gives — from a fresh source, and after
// Rand.Seed reseeds a source that stopped there, which is still lazy
// below draw 273 and has built its register from then on.
func TestRNGLazyBoundary(t *testing.T) {
	t.Parallel()
	seeds := []int64{0, -1, m31, math.MinInt64}
	for _, seed := range seeds {
		for _, stop := range lazyStops {
			for _, m := range lazyMethods {
				src := new(source)
				src.Seed(seed)
				got, want := rand.New(src), rand.New(rand.NewSource(seed))
				// The second pass reseeds the stream where the first
				// left it: still lazy below draw 273, built from there.
				for pass, s := range []int64{seed, seed ^ int64(stop)} {
					if pass > 0 {
						got.Seed(s)
						want.Seed(s)
					}
					if err := drawTo(got, want, stop); err != nil {
						t.Fatalf("seed %d, pass %d: %v", s, pass, err)
					}
					for i := 0; i < 8; i++ {
						if g, w := m.call(got), m.call(want); g != w {
							t.Fatalf("seed %d, pass %d: %s call %d after draw %d = %v, stdlib %v", s, pass, m.name, i, stop, g, w)
						}
					}
				}
			}
		}
	}
}
