package sim

import (
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

// BenchmarkRNG measures deriving one seeded stream — the cost every
// household admission pays for its planner's randomness. Seeding the
// 607-word register dominates.
func BenchmarkRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rngSink = RNG(int64(i), "planner")
	}
}

var rngSink *rand.Rand
