package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"coreda/internal/fleet"
)

// fleetBenchResult is the machine-readable record written by -fleet-json:
// the deterministic soak outcome plus the wall-clock throughput of this
// particular run (which, unlike everything printed to stdout, legitimately
// varies with shard count and machine load).
type fleetBenchResult struct {
	Seed       int64 `json:"seed"`
	Households int   `json:"households"`
	Sessions   int   `json:"sessions"`
	Shards     int   `json:"shards"`
	Workers    int   `json:"workers"`
	// Cpus is GOMAXPROCS at run time — the parallelism this row actually
	// ran with (the bench matrix sets it via the environment, so it may
	// exceed HostCPUs on small hosts). HostCPUs is the machine's logical
	// CPU count, recorded so a row can't overstate its hardware.
	Cpus     int `json:"cpus"`
	HostCPUs int `json:"host_cpus"`
	// JobFail is the chaos job-failure probability and JobRetries the
	// control-queue retries it forced. Neither may move any other field
	// except ElapsedSec/EventsPerSec.
	JobFail         float64 `json:"job_fail,omitempty"`
	JobRetries      int     `json:"job_retries,omitempty"`
	Events          int     `json:"events"`
	Admissions      int     `json:"admissions"`
	Recovered       int     `json:"recovered"`
	Evictions       int     `json:"evictions"`
	Checkpoints     int     `json:"checkpoints"`
	Digest          string  `json:"digest"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	EventsPerSec    float64 `json:"events_per_sec"`
	HouseholdsShard float64 `json:"households_per_shard"`
}

// runFleetBench soaks a multi-tenant fleet and prints the deterministic
// outcome. Everything on stdout is a pure function of (seed, households,
// sessions) — the shard count and job-failure injection rate are
// deliberately omitted, so scripts/check.sh can diff runs at any
// -fleet-shards and -fleet-jobfail against one committed golden.
// Wall-clock throughput goes only to -fleet-json.
func runFleetBench(seed int64, households, shards, sessions, workers int, jobFail float64, jsonPath string) error {
	dir, err := os.MkdirTemp("", "coreda-fleet-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	res, err := fleet.Soak(fleet.SoakConfig{
		Seed:       seed,
		Households: households,
		Sessions:   sessions,
		Shards:     shards,
		Dir:        dir,
		Workers:    workers,
		JobFail:    jobFail,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	st := res.Stats
	fmt.Printf("Fleet soak: %d households x %d sessions (seed %d)\n", res.Households, sessions, seed)
	fmt.Printf("  usage events   %d\n", res.Events)
	fmt.Printf("  admissions     %d (%d recovered from checkpoint)\n", st.Admissions, st.Recovered)
	fmt.Printf("  evictions      %d\n", st.Evictions)
	fmt.Printf("  checkpoints    %d\n", st.Checkpoints)
	fmt.Printf("  recovery errs  %d, dropped %d\n", st.RecoveryErrors, st.Dropped)
	fmt.Printf("  policy digest  %s\n", res.Digest)

	if jsonPath == "" {
		return nil
	}
	out := fleetBenchResult{
		Seed:         seed,
		Households:   res.Households,
		Sessions:     sessions,
		Shards:       res.Shards,
		Workers:      workers,
		Cpus:         runtime.GOMAXPROCS(0),
		HostCPUs:     runtime.NumCPU(),
		JobFail:      jobFail,
		JobRetries:   st.JobRetries,
		Events:       res.Events,
		Admissions:   st.Admissions,
		Recovered:    st.Recovered,
		Evictions:    st.Evictions,
		Checkpoints:  st.Checkpoints,
		Digest:       res.Digest,
		ElapsedSec:   elapsed.Seconds(),
		EventsPerSec: float64(res.Events) / elapsed.Seconds(),
	}
	if out.Workers == 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	out.HouseholdsShard = float64(res.Households) / float64(res.Shards)
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}
