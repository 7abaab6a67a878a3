package stats

import (
	"slices"
	"sync"
	"time"
)

// Durations tracks per-key usage-duration statistics. The reminding
// subsystem uses it to derive the idle timeout the paper's footnote calls
// for: "this time should be determined from the statistical data of how
// long a user will use this tool".
//
// The keys are an activity's handful of tools, so the statistics live in
// one small slice kept in ascending key order: a lookup is a short scan,
// and a new tracker's first keys cost one allocation between them.
//
// Durations is safe for concurrent use. The zero value is ready to use.
type Durations struct {
	mu sync.Mutex
	e  []durEntry // ascending by key
}

type durEntry struct {
	key uint32
	r   Running
}

// NewDurations returns an empty tracker.
func NewDurations() *Durations { return &Durations{} }

// find returns the index of key's entry and true, or the index at which
// it would be inserted to keep the table sorted and false.
func (d *Durations) find(key uint32) (int, bool) {
	for i := range d.e {
		if d.e[i].key >= key {
			return i, d.e[i].key == key
		}
	}
	return len(d.e), false
}

// insert opens a zeroed entry for key at index i, once per key. The
// first insert makes room for four keys at once.
func (d *Durations) insert(i int, key uint32) {
	if d.e == nil {
		d.e = make([]durEntry, 0, 4)
	}
	d.e = slices.Insert(d.e, i, durEntry{key: key})
}

// Observe records one usage duration for a key.
//
//coreda:hotpath
func (d *Durations) Observe(key uint32, dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.find(key)
	if !ok {
		d.insert(i, key)
	}
	d.e[i].r.Add(dur.Seconds())
}

// running returns key's statistics, or nil if it has none. The caller
// holds d.mu.
func (d *Durations) running(key uint32) *Running {
	if i, ok := d.find(key); ok {
		return &d.e[i].r
	}
	return nil
}

// N returns the number of observations for a key.
func (d *Durations) N(key uint32) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r := d.running(key); r != nil {
		return r.N()
	}
	return 0
}

// Mean returns the mean duration observed for a key (0 if none).
func (d *Durations) Mean(key uint32) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r := d.running(key); r != nil {
		return time.Duration(r.Mean() * float64(time.Second))
	}
	return 0
}

// Timeout returns mean + k*stddev for the key, clamped to [floor, ceil].
// With fewer than minSamples observations it returns the floor — the
// system falls back to a safe default (e.g. the paper's illustrative 30 s)
// until enough data has been seen.
func (d *Durations) Timeout(key uint32, k float64, minSamples int, floor, ceil time.Duration) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.running(key)
	if r == nil || r.N() < minSamples {
		return floor
	}
	t := time.Duration((r.Mean() + k*r.StdDev()) * float64(time.Second))
	if t < floor {
		t = floor
	}
	if ceil > 0 && t > ceil {
		t = ceil
	}
	return t
}

// Keys returns every key with at least one observation, in ascending
// order.
func (d *Durations) Keys() []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]uint32, len(d.e))
	for i := range d.e {
		keys[i] = d.e[i].key
	}
	return keys
}
