// Fixture for the nondeterminism analyzer's rand.NewSource rule: flagged
// in every scoped package except coreda/internal/sim, which owns the
// ported source behind sim.RNG.
package nondetsource

import "math/rand"

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `rand\.NewSource runs math/rand's slow seeder: use sim\.RNG`
}

// Taking a caller's source (conventionally sim.RNG's) stays legal.
func wrap(src rand.Source) *rand.Rand {
	return rand.New(src)
}
