package core

import (
	"testing"

	"coreda/internal/adl"
	"coreda/internal/sim"
	"coreda/internal/testutil"
)

// TestOnlineSessionStepAlloc pins the learn-mode step every observed
// tool use runs — Observe holding the transition, flushHeld applying the
// TD(λ) and counterfactual updates, Complete learning the terminal one —
// at zero allocations once the session's buffers and the learner's
// traces have grown, Reset included.
func TestOnlineSessionStepAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are enforced by the no-race pass (scripts/check.sh)")
	}
	for _, cfg := range []Config{{}, {LearnInitialPrompt: true}} {
		a := adl.TeaMaking()
		p, err := NewPlanner(a, cfg, sim.RNG(5, "step-alloc"))
		if err != nil {
			t.Fatal(err)
		}
		routine := a.CanonicalRoutine()
		sess := NewOnlineSession(p, true)
		episode := func() {
			sess.Reset(true)
			for _, s := range routine {
				sess.Observe(s)
			}
			sess.Complete()
		}
		for i := 0; i < 20; i++ { // warm-up: traces and step buffer reach full size
			episode()
		}
		if n := testing.AllocsPerRun(200, episode); n != 0 {
			t.Errorf("LearnInitialPrompt=%v: learn-mode session of %d steps: %.1f allocs, want 0", cfg.LearnInitialPrompt, len(routine), n)
		}
	}
}
