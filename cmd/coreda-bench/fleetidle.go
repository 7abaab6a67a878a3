package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/fleet"
	"coreda/internal/store"
)

// fleetIdleResult is the machine-readable record of one idle-advance
// run: the configuration plus this run's wall-clock tick throughput.
// Like the soak rows, everything printed to stdout is deterministic;
// only the elapsed/throughput figures here may vary between runs.
type fleetIdleResult struct {
	Households int `json:"households"`
	Active     int `json:"active"`
	Ticks      int `json:"ticks"`
	Shards     int `json:"shards"`
	// Cpus is GOMAXPROCS at run time; HostCPUs the machine's logical CPU
	// count — recorded so a row can't overstate its hardware.
	Cpus        int     `json:"cpus"`
	HostCPUs    int     `json:"host_cpus"`
	Evictions   int     `json:"evictions"`
	Resident    int     `json:"resident"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	TicksPerSec float64 `json:"ticks_per_sec"`
}

// runFleetIdleBench measures the fleet's clock-pump cost over a
// mostly-idle population: `households` resident tenants, `active` of
// them mid-session, pumped through `ticks` Advance calls stepping 1µs —
// short of any session timer, so every tick is the steady-state "is
// anything due?" question, which the due-time index answers with one
// heap peek per shard. Checkpoints go to an in-memory backend: the run
// measures the pump, not the filesystem. Stdout is a pure function of
// the configuration; wall-clock throughput goes only to -fleet-json.
func runFleetIdleBench(seed int64, households, active, ticks, shards int, jsonPath string) error {
	if active > households {
		active = households
	}
	f, err := fleet.New(fleet.Config{
		Shards:  shards,
		Backend: store.NewMemBackend(),
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity: adl.TeaMaking(),
				UserName: household,
				Seed:     fleet.SeedFor(seed, household),
			}, nil
		},
	})
	if err != nil {
		return err
	}
	f.Start()
	defer f.Stop()

	tool := adl.TeaMaking().Steps[0].Tool
	for i := 0; i < households; i++ {
		id := fmt.Sprintf("idle-%06d", i)
		ev := fleet.Event{Household: id, Kind: fleet.EventAdvance}
		if i < active {
			// Mid-session: the idle watchdog is armed ~30s out, so the
			// tenant sits in the due index but nothing fires at µs ticks.
			ev = fleet.Event{
				Household: id,
				At:        time.Millisecond,
				Kind:      fleet.EventUsage,
				Usage:     coreda.UsageEvent{Tool: tool, Kind: coreda.UsageStarted},
			}
		}
		if err := f.Deliver(ev); err != nil {
			return err
		}
	}
	f.Stats() // barrier: admissions done before the clock starts

	start := time.Now()
	base := 2 * time.Millisecond
	for i := 0; i < ticks; i++ {
		if err := f.Advance(base + time.Duration(i)*time.Microsecond); err != nil {
			return err
		}
	}
	st := f.Stats() // barrier: every tick dispatched
	elapsed := time.Since(start)

	fmt.Printf("Fleet idle advance: %d households, %d active, %d ticks\n", households, active, ticks)
	fmt.Printf("  admissions     %d\n", st.Admissions)
	fmt.Printf("  usage events   %d\n", st.Events)
	fmt.Printf("  evictions      %d\n", st.Evictions)
	fmt.Printf("  resident       %d\n", st.Resident)

	if jsonPath == "" {
		return nil
	}
	out := fleetIdleResult{
		Households:  households,
		Active:      active,
		Ticks:       ticks,
		Shards:      f.Shards(),
		Cpus:        runtime.GOMAXPROCS(0),
		HostCPUs:    runtime.NumCPU(),
		Evictions:   st.Evictions,
		Resident:    st.Resident,
		ElapsedSec:  elapsed.Seconds(),
		TicksPerSec: float64(ticks) / elapsed.Seconds(),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}
