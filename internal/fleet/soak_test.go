package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"coreda/internal/store"
)

// TestSoakShardParity is the fleet's signature determinism guarantee:
// the same households soaked at different shard counts must leave
// byte-identical policy files behind — sharding is a throughput decision,
// never a behavioural one.
func TestSoakShardParity(t *testing.T) {
	cfg := SoakConfig{Seed: 42, Households: 16, Sessions: 4}
	var (
		dirs    []string
		results []SoakResult
	)
	for _, shards := range []int{1, 2, 4} {
		dir := t.TempDir()
		cfg.Shards, cfg.Dir = shards, dir
		res, err := Soak(cfg)
		if err != nil {
			t.Fatalf("soak at %d shards: %v", shards, err)
		}
		dirs = append(dirs, dir)
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Digest != results[0].Digest {
			t.Errorf("digest at %d shards = %s, want %s (1 shard)",
				results[i].Shards, results[i].Digest, results[0].Digest)
		}
		if results[i].Stats != results[0].Stats {
			t.Errorf("stats at %d shards = %+v, want %+v", results[i].Shards, results[i].Stats, results[0].Stats)
		}
	}
	// Byte-level check, not just the digest: every per-household file
	// must match exactly.
	for h := 0; h < cfg.Households; h++ {
		name := SoakHousehold(h) + ".ckpt"
		want, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatalf("household %s never checkpointed: %v", name, err)
		}
		for i := 1; i < len(dirs); i++ {
			got, err := os.ReadFile(filepath.Join(dirs[i], name))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s differs between 1 and %d shards", name, results[i].Shards)
			}
		}
	}
}

// goldenSoakDigest is the policy digest of the 1000-household, 4-session,
// seed-1 soak: the digest `coreda-bench -households 1000 fleet` prints.
// It is the fixed point every change to learning, randomness, storage or
// scheduling must reproduce. Comparing runs with each other cannot catch
// a drift that happens the same way everywhere (an RNG port that is off
// by one draw at every shard count would still agree with itself); a
// committed digest can.
const goldenSoakDigest = "5abb840bf67e8c5688f5f0a21a673a73a666e877bef18e8016ef0cb5d84c7867"

// goldenSoakStats is the same soak's counter snapshot: every household
// is evicted once mid-life and recovered from its checkpoint, nothing is
// dropped or lost.
var goldenSoakStats = Stats{
	Events:      32000,
	Admissions:  2000,
	Recovered:   1000,
	Evictions:   1000,
	Checkpoints: 2000,
	Resident:    1000,
}

// TestSoakGoldenDigest pins the seed-1 soak to goldenSoakDigest and
// goldenSoakStats at 1, 4 and 8 shards.
func TestSoakGoldenDigest(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		res, err := Soak(SoakConfig{Seed: 1, Households: 1000, Sessions: 4, Shards: shards, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("soak at %d shards: %v", shards, err)
		}
		if res.Digest != goldenSoakDigest {
			t.Errorf("digest at %d shards = %s, want golden %s", shards, res.Digest, goldenSoakDigest)
		}
		if res.Stats != goldenSoakStats {
			t.Errorf("stats at %d shards = %+v, want golden %+v", shards, res.Stats, goldenSoakStats)
		}
	}
}

// legacyJSONDigest is the digest of testdata/legacy-json: the primary
// checkpoints of SoakConfig{Seed: 42, Households: 12, Sessions: 4,
// Shards: 2}, written in the pre-binary JSON encoding. It equals the
// digest the same soak gives with binary checkpoints, because Digest
// canonicalizes every blob.
const legacyJSONDigest = "579f0a17f12251a5099559d464abcb2ece6d4697eef54aaa47ed22adb790acc4"

// TestLegacyJSONFixtureMigrates: a checkpoint directory written in the
// JSON encoding still loads, and the next write of each household
// migrates it to binary without changing what was learned.
func TestLegacyJSONFixtureMigrates(t *testing.T) {
	const fixture = "testdata/legacy-json"
	if d, err := DigestDir(fixture); err != nil || d != legacyJSONDigest {
		t.Fatalf("fixture digest = %s, %v; want %s", d, err, legacyJSONDigest)
	}
	dir := t.TempDir()
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := store.SniffFormat(data); !ok || f != store.FormatJSON {
			t.Fatalf("fixture %s is not a JSON checkpoint", e.Name())
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(ents) != 12 {
		t.Fatalf("fixture holds %d blobs, want 12", len(ents))
	}

	f, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	for h := 0; h < len(ents); h++ {
		id := SoakHousehold(h)
		if err := f.Do(id, func(*Tenant) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := f.EvictNow(id); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	f.Stop()
	if st.Recovered != 12 || st.RecoveryErrors != 0 {
		t.Errorf("recovered/errors = %d/%d, want 12/0", st.Recovered, st.RecoveryErrors)
	}

	for h := 0; h < len(ents); h++ {
		data, err := os.ReadFile(filepath.Join(dir, SoakHousehold(h)+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := store.SniffFormat(data); !ok || f != store.FormatBinary {
			t.Errorf("%s still sniffs as %v after migration", SoakHousehold(h), f)
		}
	}
	if d, err := DigestDir(dir); err != nil || d != legacyJSONDigest {
		t.Errorf("digest after migration = %s, %v; want %s", d, err, legacyJSONDigest)
	}
}

// TestSoakExercisesEvictionCycle pins that the soak's mid-life idle gap
// really drives every household through evict → checkpoint → re-admit,
// so the parity gate covers the recovery path too.
func TestSoakExercisesEvictionCycle(t *testing.T) {
	res, err := Soak(SoakConfig{Seed: 1, Households: 8, Sessions: 4, Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions != 8 {
		t.Errorf("evictions = %d, want one per household", res.Stats.Evictions)
	}
	if res.Stats.Admissions != 16 || res.Stats.Recovered != 8 {
		t.Errorf("admissions/recovered = %d/%d, want 16/8", res.Stats.Admissions, res.Stats.Recovered)
	}
	if res.Stats.RecoveryErrors != 0 || res.Stats.Dropped != 0 {
		t.Errorf("recovery errors/dropped = %+v", res.Stats)
	}
	if res.Events != res.Stats.Events || res.Events != 8*4*8 {
		t.Errorf("events = %d (stats %d), want %d", res.Events, res.Stats.Events, 8*4*8)
	}
}

// TestSoakIsRepeatable pins that two identical runs (including worker
// count changes in the stream generator) give the same digest, and that
// the seed actually matters.
func TestSoakIsRepeatable(t *testing.T) {
	base := SoakConfig{Seed: 9, Households: 6, Sessions: 3, Shards: 2}
	run := func(cfg SoakConfig) string {
		cfg.Dir = t.TempDir()
		res, err := Soak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	a := run(base)
	serial := base
	serial.Workers = 1
	if b := run(serial); b != a {
		t.Errorf("workers=1 digest %s != parallel digest %s", b, a)
	}
	reseeded := base
	reseeded.Seed = 10
	if c := run(reseeded); c == a {
		t.Error("different seed produced the same digest")
	}
}

func TestShardOf(t *testing.T) {
	if ShardOf("anything", 1) != 0 || ShardOf("x", 0) != 0 {
		t.Error("degenerate shard counts must map to 0")
	}
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		s := ShardOf(SoakHousehold(i), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 100 {
			t.Errorf("shard %d got %d/1000 households: hash is badly skewed", s, c)
		}
	}
	if ShardOf("tanaka-42", 4) != ShardOf("tanaka-42", 4) {
		t.Error("ShardOf is not stable")
	}
}

func TestSeedFor(t *testing.T) {
	a, b := SeedFor(7, "h1"), SeedFor(7, "h2")
	if a == b {
		t.Error("distinct households share a seed")
	}
	if SeedFor(7, "h1") != a {
		t.Error("SeedFor is not stable")
	}
	if SeedFor(8, "h1") == a {
		t.Error("base seed has no effect")
	}
}

func TestValidHousehold(t *testing.T) {
	for _, ok := range []string{"a", "h00042", "tanaka-42", "A_b.c"} {
		if !ValidHousehold(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 59)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".dot", "a/b", "a\\b", "a b", "héh", string(long)} {
		if ValidHousehold(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestSoakSessionsFlattenToStream pins the contract the cluster soak
// depends on: a household's per-session slices, concatenated, are
// exactly the stream the single-process soak delivers.
func TestSoakSessionsFlattenToStream(t *testing.T) {
	cfg := SoakConfig{Seed: 11, Sessions: 5}
	for _, hh := range []string{SoakHousehold(0), SoakHousehold(3)} {
		var flat []Event
		sessions := SoakSessions(cfg, hh)
		if len(sessions) != 5 {
			t.Fatalf("%s: %d sessions, want 5", hh, len(sessions))
		}
		for _, s := range sessions {
			flat = append(flat, s...)
		}
		want := soakStream(cfg, hh)
		if !reflect.DeepEqual(flat, want) {
			t.Errorf("%s: concatenated sessions differ from soak stream", hh)
		}
	}
	// The mid-life eviction gap lands at the front of session Sessions/2.
	mid := SoakSessions(cfg, SoakHousehold(0))[2]
	if mid[0].Kind != EventAdvance {
		t.Errorf("session 2 starts with %v, want the idle-gap advance", mid[0].Kind)
	}
}
