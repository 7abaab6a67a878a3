package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/chaos"
	"coreda/internal/notify"
	"coreda/internal/parrun"
	"coreda/internal/queue"
	"coreda/internal/sim"
	"coreda/internal/store"
)

// SoakConfig parameterizes a fleet soak: N simulated households living
// through tea-making sessions, with a mid-life idle gap that forces every
// tenant through the evict → checkpoint → re-admit cycle.
type SoakConfig struct {
	// Seed drives every household's behaviour and learning. The same
	// seed reproduces the same soak — same digest — at any shard count.
	Seed int64
	// Households is the number of simulated homes. Zero means 64.
	Households int
	// Sessions is how many tea-making sessions each household performs.
	// Zero means 6.
	Sessions int
	// Shards is the fleet's shard count. Zero means GOMAXPROCS.
	Shards int
	// Dir is the checkpoint directory. It should start empty: stale
	// policy files would both seed tenants and pollute the digest.
	Dir string
	// Workers bounds the parrun pool generating household streams.
	// Zero means GOMAXPROCS.
	Workers int
	// IdleEvict is the fleet's idle-eviction deadline. Zero means 10
	// minutes (the soak's mid-life gap jumps just past it).
	IdleEvict time.Duration
	// OnLog receives fleet log lines (may be nil).
	OnLog func(string)
	// Bus, if non-nil, receives the fleet's control-plane events.
	Bus *notify.Bus
	// JobFail is the chaos job-failure probability: each control-queue
	// job fails injected attempts with this probability, drawn on the
	// per-shard "chaos/jobs/<shard>" stream, exercising retry/backoff
	// without changing any outcome (or the digest). Zero injects
	// nothing.
	JobFail float64
}

// SoakResult is what a soak run produced. Every field is deterministic
// in (Seed, Households, Sessions) — including Digest, which must not
// change with Shards or Workers.
type SoakResult struct {
	Households int
	Shards     int
	// Events is the number of usage events delivered.
	Events int
	// Stats is the fleet's counter snapshot after Stop.
	Stats Stats
	// Digest is a SHA-256 over the sorted checkpoint files: the fleet's
	// shard-count parity gate compares this across shard counts.
	Digest string
}

// Soak drives a fleet of simulated households and returns the
// deterministic result. Each household's event stream is generated from
// its own seeded random stream (in parallel via parrun), then delivered
// round-robin so shards see heavily interleaved traffic; half-way
// through, an idle gap evicts every tenant, so the digest also covers
// checkpoint-on-evict and re-admission from disk.
func Soak(cfg SoakConfig) (SoakResult, error) {
	if cfg.Households <= 0 {
		cfg.Households = 64
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 6
	}
	if cfg.IdleEvict <= 0 {
		cfg.IdleEvict = 10 * time.Minute
	}

	streams, err := parrun.Map(cfg.Households, cfg.Workers, func(i int) ([]Event, error) {
		return soakStream(cfg, SoakHousehold(i)), nil
	})
	if err != nil {
		return SoakResult{}, err
	}

	fcfg := Config{
		Shards:    cfg.Shards,
		Dir:       cfg.Dir,
		IdleEvict: cfg.IdleEvict,
		OnLog:     cfg.OnLog,
		Bus:       cfg.Bus,
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: adl.TeaMaking(),
				UserName: household,
				Seed:     SeedFor(cfg.Seed, household),
			}, nil
		},
	}
	if cfg.JobFail > 0 {
		plan := &chaos.Plan{JobFail: cfg.JobFail}
		if err := plan.Validate(); err != nil {
			return SoakResult{}, err
		}
		fcfg.JobInject = func(shard int) queue.InjectFunc {
			return plan.JobInjector(sim.RNG(cfg.Seed, "chaos/jobs/"+strconv.Itoa(shard)))
		}
	}
	f, err := New(fcfg)
	if err != nil {
		return SoakResult{}, err
	}
	f.Start()

	// Round-robin across households: consecutive events on a shard
	// almost always belong to different tenants, the worst case for any
	// accidental cross-tenant coupling.
	events, longest := 0, 0
	for _, s := range streams {
		if len(s) > longest {
			longest = len(s)
		}
	}
	for k := 0; k < longest; k++ {
		for _, s := range streams {
			if k >= len(s) {
				continue
			}
			if err := f.Deliver(s[k]); err != nil {
				f.Stop()
				return SoakResult{}, err
			}
			if s[k].Kind == EventUsage {
				events++
			}
		}
	}
	f.Stop()

	digest, err := DigestDir(cfg.Dir)
	if err != nil {
		return SoakResult{}, err
	}
	return SoakResult{
		Households: cfg.Households,
		Shards:     f.Shards(),
		Events:     events,
		Stats:      f.Stats(),
		Digest:     digest,
	}, nil
}

// SoakHousehold names household i of a soak — exported so the cluster
// soak driver addresses the same simulated homes.
func SoakHousehold(i int) string { return fmt.Sprintf("h%05d", i) }

// SoakSessions generates one household's life as per-session event
// slices: cfg.Sessions tea-making sessions with jittered timing and
// occasional step-order variation, plus a mid-life idle gap long enough
// to trigger eviction (attached to the front of the session after the
// gap). Concatenated, the slices are exactly the stream Soak delivers —
// which is what makes the cluster soak comparable to the single-process
// one: the cluster driver delivers session k of every household as round
// k, and since a tenant's policy depends only on its own event sequence,
// the per-household checkpoint bytes come out identical.
func SoakSessions(cfg SoakConfig, household string) [][]Event {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 6
	}
	if cfg.IdleEvict <= 0 {
		cfg.IdleEvict = 10 * time.Minute
	}
	rng := sim.RNG(cfg.Seed, "fleet/soak/"+household)
	activity := adl.TeaMaking()
	var (
		sessions [][]Event
		now      time.Duration
	)
	for session := 0; session < cfg.Sessions; session++ {
		var out []Event
		if session == cfg.Sessions/2 && session > 0 {
			// Mid-life: fall idle past the eviction deadline. The advance
			// evicts the tenant; the next session re-admits it from its
			// checkpoint file.
			now += cfg.IdleEvict + time.Second
			out = append(out, Event{Household: household, At: now, Kind: EventAdvance})
		}
		order := []int{0, 1, 2, 3}
		if rng.Intn(3) == 0 {
			j := rng.Intn(len(order) - 1)
			order[j], order[j+1] = order[j+1], order[j]
		}
		for _, stepIdx := range order {
			tool := activity.Steps[stepIdx].Tool
			now += time.Duration(3+rng.Intn(5)) * time.Second
			out = append(out, Event{
				Household: household,
				At:        now,
				Kind:      EventUsage,
				Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageStarted},
			})
			dur := time.Duration(1+rng.Intn(2)) * time.Second
			now += dur
			out = append(out, Event{
				Household: household,
				At:        now,
				Kind:      EventUsage,
				Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageEnded, Duration: dur},
			})
		}
		now += 20 * time.Second // between sessions, well under the idle deadline
		sessions = append(sessions, out)
	}
	return sessions
}

// soakStream is one household's full event stream: its sessions
// concatenated.
func soakStream(cfg SoakConfig, household string) []Event {
	var out []Event
	for _, s := range SoakSessions(cfg, household) {
		out = append(out, s...)
	}
	return out
}

// Digest hashes a backend's checkpoints (sorted by name) into a hex
// SHA-256. Each blob is decoded and hashed in its canonical binary
// re-encoding, so the digest is a function of what the tenants learned,
// not of how the bytes happen to be stored: two fleets that learned the
// same policies produce the same digest at any shard count AND in any
// on-disk format (JSON float64s round-trip bit-exactly), so a legacy
// JSON checkpoint set hashes the same before and after it migrates.
// This is the comparator behind the golden digests.
func Digest(b store.Backend) (string, error) {
	var names []string
	if err := b.Enumerate(func(name string) { names = append(names, name) }); err != nil {
		return "", err
	}
	return DigestOver(names, func(name string, c *store.Checkpoint) error {
		return store.LoadCheckpoint(b, name, c)
	})
}

// DigestOver computes the canonical digest over an explicit household
// set, loading each checkpoint through load — the primitive under
// Digest, exported so a cluster driver can combine households that live
// in different peers' backends into the one comparable digest (each name
// loaded from its owning peer). Names are deduplicated and sorted; the
// result is the same formula Digest uses.
func DigestOver(names []string, load func(name string, c *store.Checkpoint) error) (string, error) {
	names = append([]string(nil), names...)
	sort.Strings(names)
	uniq := names[:0]
	for i, name := range names {
		if i == 0 || name != names[i-1] {
			uniq = append(uniq, name)
		}
	}
	names = uniq
	// Read and canonicalize the blobs in parallel: the digest is
	// combined below in sorted name order regardless, so the concurrency
	// only overlaps per-blob read latency and decode work and cannot
	// change the result.
	const readers = 8
	sums, err := parrun.Map(len(names), readers, func(i int) ([sha256.Size]byte, error) {
		var c store.Checkpoint
		if err := load(names[i], &c); err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("digest %s: %w", names[i], err)
		}
		canon, err := store.AppendCheckpoint(nil, &c)
		if err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("digest %s: %w", names[i], err)
		}
		return sha256.Sum256(canon), nil
	})
	if err != nil {
		return "", err
	}
	bySum := make(map[string][sha256.Size]byte, len(names))
	for i, name := range names {
		bySum[name] = sums[i]
	}
	return CombineDigest(bySum), nil
}

// CheckpointSum is the canonical hash of one household's checkpoint in
// a backend: the SHA-256 of the blob's canonical binary re-encoding —
// the per-household term of the Digest formula. A cluster soak worker
// computes these locally so the driver can combine households living in
// different processes into one comparable digest.
func CheckpointSum(b store.Backend, name string) ([sha256.Size]byte, error) {
	var c store.Checkpoint
	if err := store.LoadCheckpoint(b, name, &c); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("digest %s: %w", name, err)
	}
	canon, err := store.AppendCheckpoint(nil, &c)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("digest %s: %w", name, err)
	}
	return sha256.Sum256(canon), nil
}

// CombineDigest folds per-household canonical sums into the Digest
// formula: sorted by name, each contributing "name\x00" + sum. It is
// the combine half of DigestOver, exported so digests assembled from
// per-peer CheckpointSum pieces are byte-comparable with single-process
// Digest output.
func CombineDigest(sums map[string][sha256.Size]byte) string {
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		s := sums[name]
		fmt.Fprintf(h, "%s\x00", name)
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DigestDir is Digest over the local-dir backend rooted at dir.
func DigestDir(dir string) (string, error) {
	b, err := store.NewDirBackend(dir)
	if err != nil {
		return "", err
	}
	return Digest(b)
}
