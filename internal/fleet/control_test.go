package fleet

// Tests for the queue-backed control plane: deterministic chaos
// job-failure injection against a pinned result, writeback failure
// surfacing on the bus, and shard-loop immunity to slow bus subscribers.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"coreda/internal/notify"
	"coreda/internal/store"
)

// goldenJobFailSoak is the seed-11, 48-household, 4-session soak's
// result, recorded when the queue-backed control plane and the inline
// writes it replaced still agreed on it.
var goldenJobFailSoak = struct {
	digest string
	stats  Stats
}{
	digest: "3dcb9e5891dd1d71b66fdb1f346b1d1bc172d1c39798f3f605d50cfa2ab92822",
	stats:  Stats{Events: 1536, Admissions: 96, Recovered: 48, Evictions: 48, Checkpoints: 96, Resident: 48},
}

// TestSoakJobFailDigestStable: chaos job-failure injection exercises the
// retry path (JobRetries > 0) without perturbing a single policy byte;
// both the clean and the faulty run must reproduce goldenJobFailSoak.
func TestSoakJobFailDigestStable(t *testing.T) {
	t.Parallel()
	run := func(jobFail float64) SoakResult {
		res, err := Soak(SoakConfig{
			Seed:       11,
			Households: 48,
			Sessions:   4,
			Shards:     4,
			Dir:        t.TempDir(),
			JobFail:    jobFail,
		})
		if err != nil {
			t.Fatalf("soak (jobfail=%v): %v", jobFail, err)
		}
		return res
	}
	clean, faulty := run(0), run(0.5)
	if clean.Stats.JobRetries != 0 {
		t.Errorf("clean run retried %d jobs", clean.Stats.JobRetries)
	}
	if faulty.Stats.JobRetries == 0 {
		t.Error("JobFail=0.5 never exercised a retry")
	}
	// Outcomes must match the golden exactly: injection may only move
	// retry counters.
	for _, res := range []SoakResult{clean, faulty} {
		if res.Digest != goldenJobFailSoak.digest {
			t.Errorf("jobfail run: digest %s, want golden %s", res.Digest, goldenJobFailSoak.digest)
		}
		st := res.Stats
		st.JobRetries = 0
		if st != goldenJobFailSoak.stats {
			t.Errorf("jobfail run: stats %+v, want golden %+v", res.Stats, goldenJobFailSoak.stats)
		}
	}
}

// failingBackend fails PutStream for selected households — simulating a
// persistent write failure on an eviction writeback.
type failingBackend struct {
	store.Backend
	fail func(name string) bool
}

var errDiskGone = errors.New("injected: disk gone")

func (b *failingBackend) PutStream(name string, fsync bool) (store.BlobWriter, error) {
	if b.fail(name) {
		return nil, errDiskGone
	}
	return b.Backend.PutStream(name, fsync)
}

// TestWritebackFailedSurfaces: a queued eviction writeback that fails
// must resurrect the tenant (no learning lost), count a writeback
// failure, and publish notify.WritebackFailed — the event the cluster
// layer folds into degraded-mode accounting.
func TestWritebackFailedSurfaces(t *testing.T) {
	t.Parallel()
	bus := notify.NewBus()
	failed := bus.Subscribe(16, notify.WritebackFailed)
	broken := true
	cfg := testConfig(t.TempDir())
	cfg.Backend = &failingBackend{
		Backend: store.NewMemBackend(),
		fail:    func(name string) bool { return broken && name == "sato" },
	}
	cfg.IdleEvict = time.Minute
	cfg.Bus = bus
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	end := deliverSession(t, f, "sato", 0)
	if err := f.Deliver(Event{Household: "sato", At: end + 2*time.Minute, Kind: EventAdvance}); err != nil {
		t.Fatal(err)
	}
	f.Flush()

	st := f.Stats()
	if st.WritebackFailures == 0 {
		t.Fatalf("no writeback failure counted: %+v", st)
	}
	if st.Resident != 1 || st.Evictions != 0 {
		t.Fatalf("tenant not resurrected after failed writeback: %+v", st)
	}
	if st.JobRetries == 0 {
		t.Errorf("failed writeback never retried: %+v", st)
	}
	select {
	case ev := <-failed.C():
		if ev.Household != "sato" || !strings.Contains(ev.Err, "disk gone") {
			t.Errorf("WritebackFailed event %+v", ev)
		}
	default:
		t.Error("no WritebackFailed event on the bus")
	}

	// The disk comes back: the still-resident tenant checkpoints with
	// its learning intact.
	broken = false
	f.Stop()
	var c store.Checkpoint
	if err := store.LoadCheckpoint(cfg.Backend, "sato", &c); err != nil {
		t.Fatalf("no checkpoint after recovery: %v", err)
	}
	if len(c.Policies) == 0 || c.Policies[0].Episodes != 1 {
		t.Errorf("recovered checkpoint lost learning: %+v", c.Policies)
	}
}

// TestSlowSubscriberDoesNotBlockFleet: a bus listener that never drains
// must cost only dropped events — the soak (shard loops publishing from
// their drain paths) still completes.
func TestSlowSubscriberDoesNotBlockFleet(t *testing.T) {
	t.Parallel()
	bus := notify.NewBus()
	_ = bus.Subscribe(1) // all kinds, never read
	res, err := Soak(SoakConfig{
		Seed:       5,
		Households: 32,
		Sessions:   3,
		Shards:     4,
		Dir:        t.TempDir(),
		Bus:        bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("soak delivered nothing")
	}
	st := bus.Stats()
	if st.Published == 0 || st.Dropped == 0 {
		t.Fatalf("slow subscriber not exercised: %+v", st)
	}
}

// TestBusEventStream: a drained subscriber sees the fleet's life as
// events — dirty transitions, queued evictions, checkpoint waves — with
// counts consistent with the fleet's own stats.
func TestBusEventStream(t *testing.T) {
	t.Parallel()
	bus := notify.NewBus()
	l := bus.Subscribe(4096)
	counts := make(map[notify.Kind]int)
	checkpointed := 0
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range l.C() {
			counts[ev.Kind]++
			if ev.Kind == notify.CheckpointDone {
				checkpointed += ev.Count
			}
		}
	}()
	res, err := Soak(SoakConfig{
		Seed:       5,
		Households: 32,
		Sessions:   4,
		Shards:     2,
		Dir:        t.TempDir(),
		Bus:        bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	<-drained
	if bus.Stats().Dropped != 0 {
		t.Fatalf("buffer too small, events dropped: %+v", bus.Stats())
	}
	if counts[notify.TenantDirty] == 0 || counts[notify.EvictionQueued] != res.Stats.Evictions {
		t.Errorf("event counts %v vs stats %+v", counts, res.Stats)
	}
	if checkpointed != res.Stats.Checkpoints {
		t.Errorf("CheckpointDone counts sum to %d, stats say %d", checkpointed, res.Stats.Checkpoints)
	}
}
