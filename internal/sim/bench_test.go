package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSchedulerAt measures the steady-state schedule-and-fire
// cycle: one At through the free list, one Step recycling the record.
// This is the timer core's hot loop — 0 allocs/op once warm (the
// AllocsPerRun gate in alloc_test.go locks it; this reports the time).
func BenchmarkSchedulerAt(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 128; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+time.Millisecond, fn)
		s.Step()
	}
}

// BenchmarkSchedulerReschedule measures re-arming a pending timer in
// place — the idle-watchdog pattern, and the reason Reschedule exists
// instead of cancel + fresh After.
func BenchmarkSchedulerReschedule(b *testing.B) {
	s := New()
	fn := func() {}
	tm := s.After(time.Hour, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reschedule(tm, s.Now()+time.Hour)
	}
}

// BenchmarkSchedulerCancelChurn measures the arm-and-disarm cycle under
// lazy deletion: schedule, cancel, schedule, fire — the pattern that
// exercises cancellation collection and the free list together.
func BenchmarkSchedulerCancelChurn(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 128; i++ {
		s.After(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Minute, fn)
		tm.Cancel()
		s.After(time.Millisecond, fn)
		s.Step()
	}
}

// BenchmarkRNG measures deriving one seeded stream and drawing from it.
// The 0-draw row is what every household admission pays for its
// planner's randomness; 20 draws is a churned household's whole life
// between admission and eviction; 2000 draws runs far past the lazy
// window, so it pays for building the register as well.
func BenchmarkRNG(b *testing.B) {
	for _, draws := range []int{0, 20, 2000} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := RNG(int64(i), "planner")
				for j := 0; j < draws; j++ {
					int63Sink += r.Int63()
				}
				rngSink = r
			}
		})
	}
}

var (
	rngSink   *rand.Rand
	int63Sink int64
)
