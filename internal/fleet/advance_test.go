package fleet

import (
	"testing"
	"time"
)

// runAdvanceWorkload drives a fleet whose clock is pumped exclusively
// through Fleet.advanceAll ticks — the serving-layer pattern — over the
// soak's household streams, and returns the checkpoint digest. Sessions
// are delivered in rounds (session k of every household, round-robin)
// with a shard-wide tick after each round, and a final tick past the
// idle deadline so every tenant is evicted through the advance path
// rather than through Stop.
func runAdvanceWorkload(t *testing.T, shards int) (string, Stats) {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Shards = shards
	cfg.IdleEvict = 10 * time.Minute

	const households = 12
	scfg := SoakConfig{Seed: 5, Sessions: 4, IdleEvict: cfg.IdleEvict}
	streams := make([][][]Event, households)
	rounds := 0
	for i := range streams {
		streams[i] = SoakSessions(scfg, SoakHousehold(i))
		if len(streams[i]) > rounds {
			rounds = len(streams[i])
		}
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	var tmax time.Duration
	for k := 0; k < rounds; k++ {
		for _, sessions := range streams {
			if k >= len(sessions) {
				continue
			}
			for _, ev := range sessions[k] {
				if err := f.Deliver(ev); err != nil {
					t.Fatal(err)
				}
				if ev.At > tmax {
					tmax = ev.At
				}
			}
		}
		// Tick to the high-water mark of everything delivered so far:
		// non-decreasing, exactly like a serving pump on a monotone clock.
		f.advanceAll(tmax)
		f.Stats() // barrier: the ticks have been dispatched
	}
	// Final ticks march every tenant past the idle deadline, so eviction
	// (and its queued writeback) happens through the advance path. Two
	// half-steps make the second tick a no-op — the due index must be
	// empty once everyone is evicted.
	tmax += cfg.IdleEvict/2 + time.Second
	f.advanceAll(tmax)
	tmax += cfg.IdleEvict/2 + time.Second
	f.advanceAll(tmax)
	st := f.Stats()
	f.Stop()

	digest, err := DigestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return digest, st
}

// goldenAdvanceDigest is the checkpoint digest runAdvanceWorkload
// leaves behind. It was recorded when the due-time index and the
// exhaustive per-tick sweep it replaced still agreed on it, so it pins
// the index to the sweep's clock semantics.
const goldenAdvanceDigest = "61fdae3511609b18ab1597acc0ec0d324ab7078f58543caec30cf0811f3008f3"

// TestAdvanceGoldenDigest pins the tick-driven workload to
// goldenAdvanceDigest at 1, 4 and 8 shards. It also checks the workload
// actually exercised the advance path: every household was evicted by
// the final ticks, not by Stop's flush.
func TestAdvanceGoldenDigest(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		digest, st := runAdvanceWorkload(t, shards)
		if st.Evictions < 12 {
			t.Errorf("shards=%d: %d evictions, want >= 12 (ticks did not drive eviction)", shards, st.Evictions)
		}
		if st.Resident != 0 {
			t.Errorf("shards=%d: %d tenants resident after final tick, want 0", shards, st.Resident)
		}
		if digest != goldenAdvanceDigest {
			t.Errorf("shards=%d: digest %s, want golden %s", shards, digest, goldenAdvanceDigest)
		}
	}
}

// TestLateEventFlooredToTick pins the tick floor: an event stamped
// earlier than a tick that preceded it on the shard queue is processed
// at the tick time, even for a tenant the tick did not touch because it
// had nothing due. Without the floor the event would be processed at
// its stale stamp, date lastEvent before the tick, and evict the tenant
// one tick early. A household admitted after the tick was never
// advanced by it and keeps its own stamp. No golden digest covers this:
// the soaks deliver no late events.
func TestLateEventFlooredToTick(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	cfg.IdleEvict = 10 * time.Minute
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	// A full session ends with the tenant inactive but holding one
	// trailing timer a little past the session end; a tick landing
	// before it finds the tenant with nothing due, so the tick skips it.
	now := deliverSession(t, f, "late", 0)
	tick := now + 10*time.Second
	f.advanceAll(tick)
	// A late-stamped liveness event: stamped before the tick, yet legal,
	// because per-household times are still non-decreasing.
	if err := f.Deliver(Event{Household: "late", At: now + 5*time.Second, Kind: EventNodeState, Online: true}); err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	if err := f.Do("late", func(tn *Tenant) error {
		last = tn.lastEvent
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != tick {
		t.Errorf("late event dated %v, want the tick time %v", last, tick)
	}
	// IdleEvict+1s past the stale stamp but 5s short of it from the
	// floored one: the tenant must survive this tick.
	f.advanceAll(now + 5*time.Second + cfg.IdleEvict + time.Second)
	st := f.Stats()
	if st.Resident != 1 || st.Evictions != 0 {
		t.Errorf("resident=%d evictions=%d after tick, want 1/0 (late event was not floored to the tick time)", st.Resident, st.Evictions)
	}
	// A household first admitted after the ticks was never advanced by
	// them, so its event keeps its own stamp.
	if err := f.Deliver(Event{Household: "fresh", At: now + 5*time.Second, Kind: EventNodeState, Online: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Do("fresh", func(tn *Tenant) error {
		last = tn.lastEvent
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != now+5*time.Second {
		t.Errorf("post-tick admission dated %v, want its own stamp %v", last, now+5*time.Second)
	}
}

// TestDueHeap unit-tests the intrusive due-time heap: push/pop ordering
// by (dueAt, ID), positional removal, reposition via refresh-style key
// changes, and the dueIdx bookkeeping invariant after every operation.
func TestDueHeap(t *testing.T) {
	s := &shard{}
	mk := func(id string, at time.Duration) *Tenant {
		return &Tenant{ID: id, dueAt: at, dueIdx: -1}
	}
	validate := func(stage string) {
		t.Helper()
		for i, tn := range s.due {
			if int(tn.dueIdx) != i {
				t.Fatalf("%s: due[%d].dueIdx = %d", stage, i, tn.dueIdx)
			}
			if i > 0 {
				parent := s.due[(i-1)/2]
				if dueLess(tn, parent) {
					t.Fatalf("%s: heap violated at %d: %s/%v under %s/%v", stage, i, tn.ID, tn.dueAt, parent.ID, parent.dueAt)
				}
			}
		}
	}

	// Ties on dueAt break by ID.
	a := mk("a", 5*time.Second)
	b := mk("b", 5*time.Second)
	c := mk("c", time.Second)
	d := mk("d", 9*time.Second)
	e := mk("e", 3*time.Second)
	for _, tn := range []*Tenant{d, b, a, e, c} {
		s.duePush(tn)
		validate("push")
	}
	if got := s.duePop(); got != c {
		t.Fatalf("pop 1 = %s", got.ID)
	}
	validate("pop")

	// Remove from the middle; the displaced element must be re-sifted.
	s.dueRemove(b)
	validate("remove")
	if b.dueIdx != -1 {
		t.Fatalf("removed tenant dueIdx = %d", b.dueIdx)
	}
	s.dueRemove(b) // double remove is a no-op
	validate("double remove")

	// Reposition: move the max to the front via a key change.
	d.dueAt = time.Millisecond
	s.dueFix(int(d.dueIdx))
	validate("fix")
	want := []string{"d", "e", "a"}
	for _, id := range want {
		got := s.duePop()
		validate("drain")
		if got.ID != id {
			t.Fatalf("drain order: got %s, want %s", got.ID, id)
		}
	}
	if len(s.due) != 0 {
		t.Fatalf("%d tenants left in heap", len(s.due))
	}
}
