// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a cancellable event queue, derived random-number
// streams and a timeline recorder.
//
// Every CoReDA experiment runs on this kernel instead of wall-clock time,
// so results are reproducible bit-for-bit from a seed.
//
// The timer core is allocation-free at steady state: event records live
// in a per-scheduler free list and are recycled as timers fire, the heap
// is hand-rolled (container/heap would box every push through `any`),
// and handles are generation-checked Timer values, so holding a handle
// to a fired timer can never reach into a recycled record. Cancelled
// events are lazily deleted — they stay in the heap until popped, or
// until they outnumber the live events, when one compaction sweep
// reclaims them all.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// event is one scheduled callback record. Records are owned by the
// scheduler's free list and recycled after firing, cancellation
// collection or compaction; gen is bumped on every recycle so stale
// Timer handles go inert instead of aliasing the next occupant.
type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	index     int32 // heap index; -1 when not queued
	gen       uint32
	cancelled bool
}

// Timer is a value handle to a scheduled event. The zero Timer is inert:
// Cancel and Reschedule on it are no-ops, Pending reports false. A Timer
// stays valid until its event fires or its cancellation is collected;
// after that every method degrades to the inert behaviour, so callers
// may hold handles as long as they like.
type Timer struct {
	s   *Scheduler
	e   *event
	gen uint32
}

// valid reports whether the handle still names a live (pending or
// cancelled-but-uncollected) event.
func (t Timer) valid() bool { return t.e != nil && t.e.gen == t.gen }

// Pending reports whether the event is scheduled and has neither fired
// nor been cancelled.
func (t Timer) Pending() bool { return t.valid() && !t.e.cancelled }

// At returns the virtual time the event is scheduled for, or 0 if the
// timer is no longer pending.
func (t Timer) At() time.Duration {
	if !t.Pending() {
		return 0
	}
	return t.e.at
}

// Cancel prevents a pending event from firing. Cancelling a fired,
// already-cancelled or zero Timer is a no-op. The event record is
// reclaimed lazily (on pop or compaction); its callback is dropped
// immediately so captured state is not pinned until then.
func (t Timer) Cancel() {
	s, e := t.s, t.e
	if s == nil || !t.valid() || e.cancelled {
		return
	}
	e.cancelled = true
	e.fn = nil
	s.live--
	s.ncancel++
	s.maybeCompact()
}

// Scheduler is a single-threaded discrete-event scheduler with a virtual
// clock. It is intentionally not safe for concurrent use: determinism is
// the point.
type Scheduler struct {
	now  time.Duration
	seq  uint64
	heap []*event // pending + lazily-deleted cancelled events, min (at, seq) at [0]
	free []*event // recycled records; At pops here before allocating
	// live is the uncancelled event count — Pending() in O(1), and the
	// compaction trigger's denominator. ncancel counts the cancelled
	// events still occupying heap slots.
	live    int
	ncancel int
}

// New returns a scheduler with the clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn to run at virtual time t. Scheduling in the past (t <
// Now) panics: it indicates a simulation bug, not a recoverable condition.
//
//coreda:hotpath
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v, before now %v", t, s.now))
	}
	e := s.alloc()
	e.at = t
	e.seq = s.seq
	e.fn = fn
	s.seq++
	s.live++
	s.push(e)
	return Timer{s: s, e: e, gen: e.gen}
}

// After schedules fn to run d from now.
//
//coreda:hotpath
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Reschedule moves a still-pending timer to virtual time t (clamped to
// now), keeping its callback — the zero-allocation way to re-arm a
// timer. The event takes a fresh sequence number, so same-time ordering
// is exactly as if it had been cancelled and scheduled anew. A fired or
// cancelled timer cannot be revived: Reschedule returns false and the
// caller schedules a replacement with At/After.
//
//coreda:hotpath
func (s *Scheduler) Reschedule(t Timer, at time.Duration) bool {
	e := t.e
	if e == nil || t.s != s || e.gen != t.gen || e.cancelled || e.index < 0 {
		return false
	}
	if at < s.now {
		at = s.now
	}
	e.at = at
	e.seq = s.seq
	s.seq++
	s.fix(int(e.index))
	return true
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned stop function is called.
func (s *Scheduler) Every(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		panic("sim: Every with non-positive interval")
	}
	stopped := false
	var tick func()
	var pending Timer
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = s.After(interval, tick)
		}
	}
	pending = s.After(interval, tick)
	return func() {
		stopped = true
		pending.Cancel()
	}
}

// Step fires the next pending event, advancing the clock to its time. It
// returns false when no events remain. The fired event's record is
// recycled before its callback runs, so the callback (or anyone holding
// the handle) sees a fired — inert — Timer, never a live alias of the
// record's next occupant.
//
//coreda:hotpath
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		e := s.pop()
		if e.cancelled {
			s.ncancel--
			s.release(e)
			continue
		}
		s.live--
		fn := e.fn
		s.now = e.at
		s.release(e)
		fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with time <= deadline, then advances the clock to
// the deadline. Events scheduled later remain pending.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for {
		next, ok := s.NextDue()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending returns the number of uncancelled events in the queue, in
// O(1): the scheduler tracks the live count across push, pop and cancel
// instead of scanning the heap.
func (s *Scheduler) Pending() int { return s.live }

// NextDue returns the virtual time of the earliest pending event. ok is
// false when no events are pending. Cancelled events sitting on top of
// the heap are collected on the way, so the cost is amortized O(1) plus
// one heap pop per collected cancellation — this is the primitive the
// fleet's due-time tenant index is built on.
//
//coreda:hotpath
func (s *Scheduler) NextDue() (time.Duration, bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if !e.cancelled {
			return e.at, true
		}
		s.pop()
		s.ncancel--
		s.release(e)
	}
	return 0, false
}

// alloc hands out an event record, recycling from the free list when it
// can. The cold grow path is kept out of line so the hot schedulers stay
// escape-free.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return newEvent()
}

// newEvent is the slab-miss path: the only place a record is heap
// allocated. Once the working set is warm, At never comes here again.
// Kept out of line so its allocation is not attributed to the hot
// schedulers by inlining (the hotalloc gate judges escapes by position).
//
//go:noinline
func newEvent() *event { return &event{} }

// release recycles a record onto the free list, invalidating every
// outstanding handle to it via the generation bump.
func (s *Scheduler) release(e *event) {
	e.gen++
	e.fn = nil
	e.cancelled = false
	e.index = -1
	s.free = append(s.free, e)
}

// minCompact is the heap size below which lazy-deleted cancellations are
// left to be collected by pops: sweeping a tiny heap buys nothing.
const minCompact = 32

// maybeCompact sweeps cancelled events out of the heap once they
// outnumber the live ones — lazy deletion's memory bound. Without it a
// cancel-heavy workload (armed-and-disarmed watchdogs) would grow the
// heap with corpses until the next quiet drain.
func (s *Scheduler) maybeCompact() {
	if len(s.heap) < minCompact || s.ncancel <= len(s.heap)/2 {
		return
	}
	j := 0
	for i := 0; i < len(s.heap); i++ {
		e := s.heap[i]
		if e.cancelled {
			s.release(e)
			continue
		}
		s.heap[j] = e
		e.index = int32(j)
		j++
	}
	for k := j; k < len(s.heap); k++ {
		s.heap[k] = nil
	}
	s.heap = s.heap[:j]
	for i := j/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	s.ncancel = 0
}

// less orders events by time, breaking ties by scheduling order so
// same-time events fire FIFO.
func (s *Scheduler) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends e and restores the heap invariant. Hand-rolled (as are
// pop/fix) because container/heap funnels every element through `any`,
// which is both an interface conversion per operation and a reason the
// compiler cannot inline the comparisons.
func (s *Scheduler) push(e *event) {
	e.index = int32(len(s.heap))
	s.heap = append(s.heap, e)
	s.up(len(s.heap) - 1)
}

// pop removes and returns the minimum (at, seq) event.
func (s *Scheduler) pop() *event {
	e := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap[0].index = 0
	s.heap[n] = nil
	s.heap = s.heap[:n]
	if n > 0 {
		s.down(0)
	}
	e.index = -1
	return e
}

// fix restores the invariant after the element at i changed its key.
func (s *Scheduler) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves; it reports whether i moved.
func (s *Scheduler) down(i int) bool {
	start := i
	n := len(s.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(s.heap[r], s.heap[child]) {
			child = r
		}
		if !s.less(s.heap[child], s.heap[i]) {
			break
		}
		s.swap(i, child)
		i = child
	}
	return i > start
}

func (s *Scheduler) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].index = int32(i)
	s.heap[j].index = int32(j)
}

// TimelineEntry is one recorded event of a simulated session.
type TimelineEntry struct {
	At    time.Duration
	Actor string // "user", "sensing", "planning", "reminding", ...
	Text  string
}

// Timeline records annotated events of a session and renders them in the
// style of Figure 1 of the paper (a time-ordered table of ADL steps and
// reminders).
type Timeline struct {
	entries []TimelineEntry
}

// Record appends an entry.
func (tl *Timeline) Record(at time.Duration, actor, format string, args ...any) {
	tl.entries = append(tl.entries, TimelineEntry{At: at, Actor: actor, Text: fmt.Sprintf(format, args...)})
}

// Entries returns the entries sorted by time (stable for equal times).
func (tl *Timeline) Entries() []TimelineEntry {
	out := append([]TimelineEntry(nil), tl.entries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of recorded entries.
func (tl *Timeline) Len() int { return len(tl.entries) }

// String renders the timeline as a fixed-width table.
func (tl *Timeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s  %-10s  %s\n", "time", "actor", "event")
	fmt.Fprintf(&b, "%8s  %-10s  %s\n", "--------", "----------", strings.Repeat("-", 50))
	for _, e := range tl.Entries() {
		fmt.Fprintf(&b, "%7.1fs  %-10s  %s\n", e.At.Seconds(), e.Actor, e.Text)
	}
	return b.String()
}
