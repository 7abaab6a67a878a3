package sim

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"coreda/internal/testutil"
)

// TestSchedulerAllocBudgets locks the timer-core hot paths to zero
// allocations at steady state with testing.AllocsPerRun: once the free
// list and heap are warm, At/After + Step cycles, Reschedule re-arms and
// Cancel + re-schedule churn must not touch the heap at all. This is the
// allocation contract the fleet's idle-tenant budget is built on; it is
// enforced by the no-race alloc pass in scripts/check.sh.
func TestSchedulerAllocBudgets(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	s := New()
	fn := func() {}
	// Warm up: grow the heap, the free list and their backing arrays.
	for i := 0; i < 128; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()

	if got := testing.AllocsPerRun(1000, func() {
		s.After(time.Millisecond, fn)
		s.Step()
	}); got != 0 {
		t.Errorf("After+Step allocates %.1f/op at steady state, want 0", got)
	}

	if got := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+time.Millisecond, fn)
		s.Step()
	}); got != 0 {
		t.Errorf("At+Step allocates %.1f/op at steady state, want 0", got)
	}

	pending := s.After(time.Hour, fn)
	if got := testing.AllocsPerRun(1000, func() {
		if !s.Reschedule(pending, s.Now()+time.Hour) {
			t.Fatal("Reschedule of a pending timer failed")
		}
	}); got != 0 {
		t.Errorf("Reschedule allocates %.1f/op, want 0", got)
	}
	pending.Cancel()

	// Cancel-heavy churn: arm-and-disarm (the idle-watchdog pattern) must
	// recycle records through the free list, not allocate fresh ones —
	// including across lazy-deletion collection.
	if got := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Minute, fn)
		tm.Cancel()
		s.After(time.Millisecond, fn)
		s.Step()
	}); got != 0 {
		t.Errorf("cancel churn allocates %.1f/op at steady state, want 0", got)
	}
}

// TestPendingAllocFreeAndO1 pins the O(1) Pending contract: the count is
// a maintained counter, correct under cancel-heavy churn, double
// cancels, compaction sweeps and collection, and reading it never
// allocates or perturbs the queue.
func TestPendingAllocFreeAndO1(t *testing.T) {
	s := New()
	fired := 0
	var timers []Timer
	const n = 1000
	for i := 0; i < n; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Millisecond, func() { fired++ }))
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	// Cancel 90% — far past the compaction threshold, so the lazy
	// deletions are swept mid-loop and the counter must survive it.
	for i := 0; i < n*9/10; i++ {
		timers[i].Cancel()
	}
	if got := s.Pending(); got != n/10 {
		t.Fatalf("Pending after cancels = %d, want %d", got, n/10)
	}
	// Double cancels (and cancels through stale handles) must not
	// decrement the counter again.
	for i := 0; i < n/2; i++ {
		timers[i].Cancel()
	}
	if got := s.Pending(); got != n/10 {
		t.Fatalf("Pending after double cancels = %d, want %d", got, n/10)
	}
	if !testutil.RaceEnabled {
		if got := testing.AllocsPerRun(100, func() { _ = s.Pending() }); got != 0 {
			t.Errorf("Pending allocates %.1f/op, want 0", got)
		}
	}
	s.Run()
	if fired != n/10 {
		t.Errorf("fired %d events, want %d (cancelled ones must not fire)", fired, n/10)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending after Run = %d, want 0", got)
	}
}

// TestRNGAllocBudget caps a stream derivation at the one object it must
// return, which holds the Rand and its source. The seed hash runs over a
// stack buffer, so admission pays for no formatting or hasher garbage.
func TestRNGAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	if got := testing.AllocsPerRun(100, func() {
		_ = RNG(-9223372036854775808, "fleet/soak/h00042")
	}); got > 1 {
		t.Errorf("RNG allocates %.1f/op, want at most 1 (the Rand and its source)", got)
	}
}

// heapPerRun runs f n times and returns the mallocs and bytes it
// allocated per run.
func heapPerRun(n int, f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestRNGLazyAlloc pins when a stream pays for its register. A stream
// that stops within the lazy window (draws 0..272) costs the source and
// the Rand alone; draw 273 builds the 607-word register, once, and a
// reseeded source reuses it. Counts are averaged over many streams, so
// a stray runtime allocation cannot tip them.
func TestRNGLazyAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	const runs = 200
	stream := func(draws int) func() {
		return func() {
			r := RNG(42, "fleet/soak/h00042")
			for i := 0; i < draws; i++ {
				r.Int63()
			}
		}
	}
	lazyObjs, lazyBytes := heapPerRun(runs, stream(rngTap))
	if lazyObjs > 2 || lazyBytes > 128 {
		t.Errorf("RNG + %d draws allocates %.2f objects, %.0f B per stream; want at most 2 objects, 128 B", rngTap, lazyObjs, lazyBytes)
	}

	objs, bytes := heapPerRun(runs, stream(rngTap+1))
	regBytes := float64(unsafe.Sizeof([rngLen]int64{}))
	// The 10% slack absorbs a stray runtime allocation in either window.
	if n, b := math.Round(objs-lazyObjs), bytes-lazyBytes; n != 1 || b < 0.9*regBytes || b > 1.1*regBytes {
		t.Errorf("draw %d allocates %.2f objects, %.0f B per stream; want the register alone (1 object, %.0f B)", rngTap, objs-lazyObjs, b, regBytes)
	}

	r := RNG(42, "fleet/soak/h00042")
	for i := 0; i <= rngTap; i++ {
		r.Int63() // the last draw builds the register
	}
	var seed int64
	objs, _ = heapPerRun(runs, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 2*rngLen; i++ {
			r.Int63()
		}
	})
	if objs >= 0.5 {
		t.Errorf("a reseeded stream drawn past its window allocates %.2f objects, want 0", objs)
	}
}
