package stats

import (
	"testing"
	"time"

	"coreda/internal/testutil"
)

// TestDurationsObserveAlloc pins the per-tool statistics that every
// tool-usage event updates: once a key is known Observe allocates
// nothing, and a fresh tracker's first four keys (a tea-making tenant's
// tools) cost one allocation between them.
func TestDurationsObserveAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	var d Durations
	for k := uint32(1); k <= 4; k++ {
		d.Observe(k, time.Second)
	}
	if n := testing.AllocsPerRun(1000, func() {
		d.Observe(3, 2*time.Second)
	}); n != 0 {
		t.Errorf("Observe on a known key: %.1f allocs/op, want 0", n)
	}
	var fresh Durations
	if n := testing.AllocsPerRun(100, func() {
		fresh.e = nil
		for k := uint32(4); k >= 1; k-- {
			fresh.Observe(k, time.Second)
		}
	}); n > 1 {
		t.Errorf("first observations of four keys: %.1f allocs, want at most 1", n)
	}
}
