package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/store"
	"coreda/internal/testutil"
)

// TestShardIngestAllocBudget locks the steady-state shard ingest path —
// Deliver, tenant lookup, virtual-clock advance, Hub dispatch,
// dirty-set tracking — to a small per-event allocation budget. The shard
// loop runs on its own goroutine, so this measures a global
// runtime.MemStats malloc delta across a burst of events rather than
// testing.AllocsPerRun.
func TestShardIngestAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	const households = 16
	ids := make([]string, households)
	for i := range ids {
		ids[i] = fmt.Sprintf("alloc-%03d", i)
	}
	tool := adl.TeaMaking().Steps[0].Tool
	deliver := func(from, n int) {
		for i := from; i < from+n; i++ {
			ev := Event{
				Household: ids[i%households],
				At:        time.Duration(i) * time.Millisecond,
				Kind:      EventUsage,
				Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageStarted},
			}
			if err := f.Deliver(ev); err != nil {
				t.Fatal(err)
			}
		}
		f.Stats() // shard barrier: the loop has drained the burst
	}

	// Warm up: admissions, map growth and per-tenant buffers happen here.
	for _, id := range ids {
		if err := f.Deliver(Event{Household: id, Kind: EventAdvance}); err != nil {
			t.Fatal(err)
		}
	}
	f.Stats()
	deliver(0, 2000)

	const events = 4000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	deliver(2000, events)
	runtime.ReadMemStats(&after)

	perEvent := float64(after.Mallocs-before.Mallocs) / events
	// The loop itself is allocation-free; the budget absorbs the handful
	// of mallocs the runtime and Hub bookkeeping spend across the whole
	// burst (timer wheel, map rehash straggler, Stats barrier).
	const budget = 0.25
	t.Logf("shard ingest: %.3f mallocs/event over %d events", perEvent, events)
	if perEvent > budget {
		t.Errorf("shard ingest allocates %.3f mallocs/event over %d events, budget %.2f", perEvent, events, budget)
	}
}

// TestAdvanceTickAllocBudget locks the clock-pump path over a shard of
// idle tenants to (almost) zero allocations per tick: the tick is a
// plain channel message (no closure capturing the deadline), the
// dispatch is a due-heap peek that finds nothing due, and no per-tick
// scratch is built. The budget
// absorbs only the single Stats barrier closing the measured window.
func TestAdvanceTickAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	cfg := testConfig(t.TempDir())
	cfg.Shards = 1
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	// A population of resident households with no timers and no eviction
	// deadline (IdleEvict is off): nothing is ever due, so every tick
	// must cost O(1) — and allocate nothing.
	const resident = 1024
	for i := 0; i < resident; i++ {
		if err := f.Deliver(Event{Household: fmt.Sprintf("idle-%04d", i), Kind: EventAdvance}); err != nil {
			t.Fatal(err)
		}
	}
	f.Stats()
	for i := 0; i < 100; i++ { // warm the pump
		f.advanceAll(time.Duration(i) * time.Millisecond)
	}
	f.Stats()

	const ticks = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < ticks; i++ {
		f.advanceAll(time.Duration(100+i) * time.Millisecond)
	}
	f.Stats() // barrier: every tick has been dispatched
	runtime.ReadMemStats(&after)

	perTick := float64(after.Mallocs-before.Mallocs) / ticks
	const budget = 0.05
	t.Logf("advance tick: %.4f mallocs/tick over %d ticks, %d idle tenants", perTick, ticks, resident)
	if perTick > budget {
		t.Errorf("advance tick allocates %.4f mallocs/tick over %d ticks, budget %.2f", perTick, ticks, budget)
	}
}

// TestTenantResidentAllocBudget caps what a resident household costs in
// live heap: 2,000 soak households, each admitted and driven through two
// tea-making sessions over an in-memory checkpoint backend, must hold at
// most 9 KiB apiece once garbage is collected. A soak household makes
// only a handful of planner draws by then, so its RNG stream must still
// be lazy (no 4.9 KB register), and nothing else may creep back.
func TestTenantResidentAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	const (
		households = 2000
		budget     = 9 << 10
	)
	soak := SoakConfig{Seed: 7}
	streams := make([][]Event, households)
	for i := range streams {
		sessions := SoakSessions(soak, SoakHousehold(i))
		streams[i] = append(sessions[0], sessions[1]...)
	}
	f, err := New(Config{
		Backend:   store.NewMemBackend(),
		IdleEvict: 10 * time.Minute,
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: adl.TeaMaking(),
				UserName: household,
				Seed:     SeedFor(soak.Seed, household),
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	for k := range streams[0] {
		for _, s := range streams {
			if err := f.Deliver(s[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := f.Stats().Resident // shard barrier: every event is applied
	heap := live()
	if resident != households {
		t.Fatalf("%d households resident, want %d", resident, households)
	}
	perHousehold := (float64(heap) - float64(base)) / households
	t.Logf("resident household: %.0f B of live heap", perHousehold)
	if perHousehold > budget {
		t.Errorf("resident household holds %.0f B of live heap, budget %d B", perHousehold, budget)
	}
}

// TestTenantReadmitAllocBudget caps what re-admitting an evicted
// household from its checkpoint allocates: building the stack (scheduler,
// hub, system, planner, sensing, reminding) and restoring the policy
// through the shard's scratch checkpoint. Every household of a churning
// fleet pays this each time it wakes from idle eviction. The households
// share one activity, so the count is the fleet's own, not the cost of
// building an activity per admission.
func TestTenantReadmitAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	const households = 500
	soak := SoakConfig{Seed: 7}
	activity := adl.TeaMaking()
	f, err := New(Config{
		Backend: store.NewMemBackend(),
		Shards:  1,
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: activity,
				UserName: household,
				Seed:     SeedFor(soak.Seed, household),
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	// Each household lives one session, then is checkpointed and
	// evicted, which leaves a blob to restore from.
	ids := make([]string, households)
	for i := range ids {
		ids[i] = SoakHousehold(i)
		for _, ev := range SoakSessions(soak, ids[i])[0] {
			if err := f.Deliver(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.EvictNow(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Resident != 0 || st.Evictions != households {
		t.Fatalf("before re-admission: %d resident, %d evictions; want 0 and %d", st.Resident, st.Evictions, households)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		if err := f.Deliver(Event{Household: id, Kind: EventAdvance}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats() // shard barrier: every admission has happened
	runtime.ReadMemStats(&after)
	if st.Recovered != households || st.RecoveryErrors != 0 {
		t.Fatalf("recovered %d households (%d errors), want %d", st.Recovered, st.RecoveryErrors, households)
	}

	perAdmit := float64(after.Mallocs-before.Mallocs) / households
	// Measured at 31.1 when the budget was set, against 58.0 while a
	// restore still grew a fresh checkpoint's Q slice and validation,
	// duration tables and key sorts allocated.
	const budget = 34
	t.Logf("checkpoint re-admission: %.1f mallocs/household", perAdmit)
	if perAdmit > budget {
		t.Errorf("checkpoint re-admission allocates %.1f mallocs/household, budget %d", perAdmit, budget)
	}
}
