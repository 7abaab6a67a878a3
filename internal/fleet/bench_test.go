package fleet

import (
	"fmt"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
)

// BenchmarkShardIngest measures the shard event loop's per-event cost —
// delivery, tenant lookup, virtual-clock advance, Hub dispatch and
// dirty-set tracking — with checkpointing left out of the loop (no
// flushes, no eviction). Traffic round-robins across households, the
// worst case for the shard's last-tenant cache.
func BenchmarkShardIngest(b *testing.B) {
	cfg := testConfig(b.TempDir())
	cfg.Shards = 1
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	const households = 16
	ids := make([]string, households)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%03d", i)
	}
	tool := adl.TeaMaking().Steps[0].Tool
	// Admit every household outside the timer; Stats is a shard barrier,
	// so admissions have finished when it returns.
	for _, id := range ids {
		if err := f.Deliver(Event{Household: id, Kind: EventAdvance}); err != nil {
			b.Fatal(err)
		}
	}
	f.Stats()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := Event{
			Household: ids[i%households],
			At:        time.Duration(i) * time.Millisecond,
			Kind:      EventUsage,
			Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageStarted},
		}
		if err := f.Deliver(ev); err != nil {
			b.Fatal(err)
		}
	}
	f.Stats() // barrier: the shard has drained its queue
}

// idleFleetShard builds an unstarted single-shard fleet with `resident`
// households, `active` of which are mid-session (idle watchdog armed ~30s
// out); the rest are fully quiesced. The fleet is never Started, so the
// shard is driven directly on the caller's goroutine — which is what
// makes the advance benchmarks single-threaded and their allocs/op
// numbers exact.
func idleFleetShard(b *testing.B, resident, active int) *shard {
	b.Helper()
	cfg := testConfig(b.TempDir())
	cfg.Shards = 1
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := f.shards[0]
	tool := adl.TeaMaking().Steps[0].Tool
	for i := 0; i < resident; i++ {
		id := fmt.Sprintf("idle-%05d", i)
		if _, err := s.admit(id); err != nil {
			b.Fatal(err)
		}
		if i < active {
			s.handle(Event{
				Household: id,
				Kind:      EventUsage,
				Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageStarted},
			})
		}
	}
	return s
}

// BenchmarkAdvanceIdle is the due-time index's headline number: the
// per-tick cost of advancing a shard where almost every household is
// idle (scripts/bench.sh records it in BENCH_fleet.json). The population
// is 10k resident households, 1% of them mid-session. Ticks step 1µs,
// staying short of the active sessions' ~30s watchdogs, so every tick is
// the pump's steady-state case — nothing is due yet, but the shard must
// establish that, and the due index answers with one heap peek.
func BenchmarkAdvanceIdle(b *testing.B) {
	const resident, active = 10000, 100
	s := idleFleetShard(b, resident, active)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.advanceAll(time.Duration(i) * time.Microsecond)
	}
}
