// Fixture for the nondeterminism analyzer, checked as a simulation-facing
// package (coreda/internal/sim).
package nondet

import (
	"math/rand"
	"sync"
	"time"
)

func clock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func wait() {
	time.Sleep(time.Second) // want `time\.Sleep reads the wall clock`
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want `time\.Since reads the wall clock`
}

func draw() int {
	return rand.Intn(6) // want `global rand\.Intn`
}

func roll() float64 {
	return rand.Float64() // want `global rand\.Float64`
}

// Wrapping a caller's seeded source and *rand.Rand plumbing are the
// sanctioned pattern (rand.NewSource has its own fixture, nondet_source).
func seeded(src rand.Source) *rand.Rand {
	return rand.New(src)
}

// Pure duration arithmetic never touches the wall clock.
func double(d time.Duration) time.Duration { return d * 2 }

type fakeClock struct{}

func (fakeClock) Now() int { return 0 }

// A local name shadowing the package is not a package reference.
func shadowed() int {
	time := fakeClock{}
	return time.Now()
}

func suppressed() time.Time {
	//coreda:vet-ignore nondeterminism fixture exercising the ignore directive
	return time.Now()
}

// Pooled-object reuse order is GC-dependent: forbidden in scoped code.
var pooled = sync.Pool{New: func() any { return new(int) }} // want `sync\.Pool reuse depends on GC timing`

// Other sync primitives stay legal in scoped packages.
var mu sync.Mutex

func locked() {
	mu.Lock()
	defer mu.Unlock()
	_ = pooled
}
