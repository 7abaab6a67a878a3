package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter accumulates a timed window — wall time, process CPU and Go
// runtime counters — over one or more segments, so work done outside
// the window (a residency measurement mid-run) can be left out.
type meter struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcs       uint32
	pauseNs   uint64

	t0 time.Time
	c0 time.Duration
	m0 runtime.MemStats
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.m0)
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) end() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuTime() - m.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - m.m0.Mallocs
	m.gcs += ms.NumGC - m.m0.NumGC
	m.pauseNs += ms.PauseTotalNs - m.m0.PauseTotalNs
}

// heapNow forces a collection and returns the live heap's bytes and
// objects.
func heapNow() (bytes, objects uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// residency is the per-household memory of resident tenants: live heap
// at peak residency minus the live heap before any admission.
type residency struct {
	baseBytes, baseObjects uint64
	bytesPer, objectsPer   float64
	pause                  time.Duration // spent measuring, to leave out of set-up time
}

// measureBase records the live heap before any admission.
func (r *residency) measureBase() {
	t0 := time.Now()
	r.baseBytes, r.baseObjects = heapNow()
	r.pause += time.Since(t0)
}

// at records the heap per household with resident tenants admitted.
func (r *residency) at(resident int) {
	t0 := time.Now()
	b, o := heapNow()
	r.pause += time.Since(t0)
	if resident <= 0 {
		return
	}
	r.bytesPer = (float64(b) - float64(r.baseBytes)) / float64(resident)
	r.objectsPer = (float64(o) - float64(r.baseObjects)) / float64(resident)
}
