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
