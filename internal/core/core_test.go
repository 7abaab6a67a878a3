package core

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"coreda/internal/adl"
	"coreda/internal/rl"
	"coreda/internal/sim"
)

func TestLevelString(t *testing.T) {
	if Minimal.String() != "minimal" || Specific.String() != "specific" {
		t.Error("level strings")
	}
	if Level(9).String() == "" {
		t.Error("unknown level string empty")
	}
}

func TestRewardsOf(t *testing.T) {
	r := DefaultRewards()
	next := adl.StepOf(adl.ToolPot)
	tests := []struct {
		name     string
		prompt   Prompt
		next     adl.StepID
		terminal bool
		want     float64
	}{
		{"terminal correct", Prompt{Tool: adl.ToolPot, Level: Minimal}, next, true, 1000},
		{"terminal correct specific", Prompt{Tool: adl.ToolPot, Level: Specific}, next, true, 1000},
		{"intermediate minimal", Prompt{Tool: adl.ToolPot, Level: Minimal}, next, false, 100},
		{"intermediate specific", Prompt{Tool: adl.ToolPot, Level: Specific}, next, false, 50},
		{"wrong tool", Prompt{Tool: adl.ToolKettle, Level: Minimal}, next, false, 0},
		{"wrong tool terminal", Prompt{Tool: adl.ToolKettle, Level: Minimal}, next, true, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Of(tt.prompt, tt.next, tt.terminal); got != tt.want {
				t.Errorf("Of() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCodecShapes(t *testing.T) {
	c, err := newCodec(adl.TeaMaking())
	if err != nil {
		t.Fatal(err)
	}
	// 4 steps + idle = 5 symbols -> 25 states; 4 tools x 2 levels = 8.
	if c.NumStates() != 25 {
		t.Errorf("NumStates = %d", c.NumStates())
	}
	if c.NumActions() != 8 {
		t.Errorf("NumActions = %d", c.NumActions())
	}
}

func TestCodecStateEncoding(t *testing.T) {
	c, _ := newCodec(adl.TeaMaking())
	s1, ok := c.State(adl.StepIdle, adl.StepOf(adl.ToolTeaBox))
	if !ok {
		t.Fatal("idle/teabox state invalid")
	}
	s2, ok := c.State(adl.StepOf(adl.ToolTeaBox), adl.StepOf(adl.ToolPot))
	if !ok {
		t.Fatal("teabox/pot state invalid")
	}
	if s1 == s2 {
		t.Error("distinct pairs collide")
	}
	if _, ok := c.State(adl.StepOf(adl.ToolBrush), adl.StepIdle); ok {
		t.Error("foreign step accepted")
	}
}

func TestCodecActionRoundTrip(t *testing.T) {
	c, _ := newCodec(adl.TeaMaking())
	for _, tool := range []adl.ToolID{adl.ToolTeaBox, adl.ToolPot, adl.ToolKettle, adl.ToolTeaCup} {
		for _, level := range []Level{Minimal, Specific} {
			p := Prompt{Tool: tool, Level: level}
			a, ok := c.Action(p)
			if !ok {
				t.Fatalf("Action(%+v) invalid", p)
			}
			if got := c.Decode(a); got != p {
				t.Errorf("Decode(Action(%+v)) = %+v", p, got)
			}
		}
	}
	if _, ok := c.Action(Prompt{Tool: adl.ToolBrush}); ok {
		t.Error("foreign tool encoded")
	}
	if _, ok := c.Action(Prompt{Tool: adl.NoTool}); ok {
		t.Error("idle tool encoded")
	}
}

func cleanEpisodes(r adl.Routine, n int) [][]adl.StepID {
	out := make([][]adl.StepID, n)
	for i := range out {
		out[i] = r.Clone()
	}
	return out
}

func TestPlannerLearnsCanonicalRoutine(t *testing.T) {
	a := adl.TeaMaking()
	p, err := NewPlanner(a, Config{}, sim.RNG(1, "planner"))
	if err != nil {
		t.Fatal(err)
	}
	routine := a.CanonicalRoutine()
	eval := cleanEpisodes(routine, 1)
	for i := 0; i < 150; i++ {
		if err := p.TrainEpisode(routine); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Evaluate(eval); got != 1.0 {
		t.Fatalf("precision after 150 episodes = %v, want 1.0", got)
	}
	// Every prediction along the routine is the next step, at minimal
	// level (100 > 50 shapes the level preference).
	prev := adl.StepIdle
	for i := 0; i+1 < len(routine); i++ {
		prompt, ok := p.Predict(prev, routine[i])
		if !ok {
			t.Fatalf("no prediction at position %d", i)
		}
		if adl.StepOf(prompt.Tool) != routine[i+1] {
			t.Errorf("position %d: predicted %d, want %d", i, prompt.Tool, adl.ToolOf(routine[i+1]))
		}
		// The terminal prompt's reward (1000) is level-independent in
		// the paper, so the level preference is only defined for
		// intermediate steps (100 minimal vs 50 specific).
		if i+2 < len(routine) && prompt.Level != Minimal {
			t.Errorf("position %d: level = %v, want minimal", i, prompt.Level)
		}
		prev = routine[i]
	}
	if p.Episodes != 150 {
		t.Errorf("Episodes = %d", p.Episodes)
	}
}

func TestPlannerLearnsPersonalizedRoutines(t *testing.T) {
	// Two users with different personal orders must get different
	// policies — the paper's personalization criterion.
	a := adl.Dressing()
	r1 := a.CanonicalRoutine()
	r2 := adl.Routine{r1[0], r1[2], r1[1], r1[3]}

	p1, _ := NewPlanner(a, Config{}, sim.RNG(2, "u1"))
	p2, _ := NewPlanner(a, Config{}, sim.RNG(3, "u2"))
	for i := 0; i < 150; i++ {
		if err := p1.TrainEpisode(r1); err != nil {
			t.Fatal(err)
		}
		if err := p2.TrainEpisode(r2); err != nil {
			t.Fatal(err)
		}
	}
	if got := p1.Evaluate(cleanEpisodes(r1, 1)); got != 1 {
		t.Errorf("user1 precision = %v", got)
	}
	if got := p2.Evaluate(cleanEpisodes(r2, 1)); got != 1 {
		t.Errorf("user2 precision = %v", got)
	}
	// After the shared first step, their predictions diverge.
	pr1, _ := p1.Predict(adl.StepIdle, r1[0])
	pr2, _ := p2.Predict(adl.StepIdle, r2[0])
	if pr1.Tool == pr2.Tool {
		t.Errorf("both users predicted %d; personalization lost", pr1.Tool)
	}
}

func TestPredictUntrainedReturnsFalse(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(4, "x"))
	if _, ok := p.Predict(adl.StepIdle, adl.StepOf(adl.ToolTeaBox)); ok {
		t.Error("untrained planner predicted")
	}
	if _, ok := p.Predict(adl.StepOf(adl.ToolBrush), adl.StepIdle); ok {
		t.Error("foreign state predicted")
	}
}

func TestTrainEpisodeRejectsBadInput(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(5, "x"))
	if err := p.TrainEpisode([]adl.StepID{adl.StepOf(adl.ToolTeaBox)}); err == nil {
		t.Error("single-step episode accepted")
	}
	if err := p.TrainEpisode([]adl.StepID{adl.StepOf(adl.ToolBrush), adl.StepOf(adl.ToolPot)}); err == nil {
		t.Error("foreign step accepted")
	}
}

func TestLearningCurveConverges(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(6, "curve"))
	routine := a.CanonicalRoutine()
	curve, err := p.LearningCurve(cleanEpisodes(routine, 120), cleanEpisodes(routine, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if curve.Len() != 120 {
		t.Fatalf("curve length = %d", curve.Len())
	}
	iter95, ok := curve.ConvergedAt(0.95)
	if !ok {
		t.Fatalf("never converged at 95%%; final = %v", curve.Final())
	}
	if iter95 < 1 || iter95 > 120 {
		t.Errorf("converged at iteration %d; implausible", iter95)
	}
	iter98, ok := curve.ConvergedAt(0.98)
	if !ok {
		t.Fatal("never converged at 98%")
	}
	if iter98 < iter95 {
		t.Errorf("98%% convergence (%d) before 95%% (%d)", iter98, iter95)
	}
}

func TestLearningCurveStopsEarlyAtTarget(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(7, "early"))
	routine := a.CanonicalRoutine()
	curve, err := p.LearningCurve(cleanEpisodes(routine, 500), cleanEpisodes(routine, 1), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if curve.Len() == 500 {
		t.Error("did not stop early despite reaching target")
	}
	if curve.Final() < 0.95 {
		t.Errorf("stopped below target: %v", curve.Final())
	}
}

func TestReplayAcceleratesConvergence(t *testing.T) {
	a := adl.TeaMaking()
	routine := a.CanonicalRoutine()
	eval := cleanEpisodes(routine, 1)

	convergeAt := func(cfg Config, seed int64) int {
		p, err := NewPlanner(a, cfg, sim.RNG(seed, "replay"))
		if err != nil {
			t.Fatal(err)
		}
		curve, err := p.LearningCurve(cleanEpisodes(routine, 200), eval, 0)
		if err != nil {
			t.Fatal(err)
		}
		it, ok := curve.ConvergedAt(0.95)
		if !ok {
			return 201
		}
		return it
	}
	// Replay matters when the counterfactual sweep is off (the paper's
	// plain TD(λ) setting): stored transitions are refreshed against the
	// current bootstrap, curing stale estimates. Average over seeds to
	// dampen run-to-run variance.
	plain, replay := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		plain += convergeAt(Config{NoCounterfactual: true}, seed)
		replay += convergeAt(Config{NoCounterfactual: true, ReplaySize: 256, ReplayPerEpisode: 64}, seed)
	}
	if replay > plain {
		t.Errorf("replay mean convergence %d/5 slower than plain %d/5", replay, plain)
	}
}

func TestCounterfactualAcceleratesConvergence(t *testing.T) {
	a := adl.TeaMaking()
	routine := a.CanonicalRoutine()
	eval := cleanEpisodes(routine, 1)
	convergeAt := func(cfg Config, seed int64) int {
		p, err := NewPlanner(a, cfg, sim.RNG(seed, "cf"))
		if err != nil {
			t.Fatal(err)
		}
		curve, err := p.LearningCurve(cleanEpisodes(routine, 300), eval, 0)
		if err != nil {
			t.Fatal(err)
		}
		it, ok := curve.ConvergedAt(0.95)
		if !ok {
			return 301
		}
		return it
	}
	on, off := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		on += convergeAt(Config{}, seed)
		off += convergeAt(Config{NoCounterfactual: true}, seed)
	}
	if on >= off {
		t.Errorf("counterfactual sweep did not accelerate: on=%d off=%d (summed iterations)", on, off)
	}
}

func TestOnlineSessionLearnsToConvergence(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(8, "online"))
	routine := a.CanonicalRoutine()
	sess := NewOnlineSession(p, true)
	for ep := 0; ep < 200; ep++ {
		sess.Reset(true)
		for _, s := range routine {
			sess.Observe(s)
		}
		sess.Complete()
	}
	if got := p.Evaluate(cleanEpisodes(routine, 1)); got != 1 {
		t.Fatalf("online-trained precision = %v", got)
	}
	if p.Episodes != 200 {
		t.Errorf("Episodes = %d", p.Episodes)
	}
	// Terminal credit: the state before the last step must value the
	// terminal prompt far above an intermediate-correct level.
	s, _ := p.codec.State(routine[1], routine[2])
	a2, _ := p.codec.Action(Prompt{Tool: adl.ToolOf(routine[3]), Level: Minimal})
	if q := p.table.Get(s, a2); q < 300 {
		t.Errorf("terminal-transition Q = %v, want large (1000-scale reward)", q)
	}
}

func TestOnlineSessionIdleDoesNotAdvanceChain(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(9, "idle"))
	sess := NewOnlineSession(p, true)
	sess.Observe(adl.StepOf(adl.ToolTeaBox))
	sess.Observe(adl.StepIdle)
	sess.Observe(adl.StepIdle)
	prev, cur, ok := sess.Current()
	if !ok || prev != adl.StepIdle || cur != adl.StepOf(adl.ToolTeaBox) {
		t.Errorf("state after idles = (%d, %d, %v)", prev, cur, ok)
	}
	if got := sess.Sequence(); len(got) != 1 {
		t.Errorf("sequence = %v", got)
	}
}

func TestOnlineSessionForeignStepRejected(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(10, "foreign"))
	sess := NewOnlineSession(p, true)
	if _, ok := sess.Observe(adl.StepOf(adl.ToolBrush)); ok {
		t.Error("foreign step produced a prediction")
	}
	if len(sess.Sequence()) != 0 {
		t.Error("foreign step recorded")
	}
}

func TestOnlineSessionNotePromptOverridesAction(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{Epsilon: 0.0001}, sim.RNG(11, "note"))
	sess := NewOnlineSession(p, true)
	routine := a.CanonicalRoutine()

	sess.Observe(routine[0])
	issued := Prompt{Tool: adl.ToolOf(routine[1]), Level: Specific}
	sess.NotePrompt(issued)
	sess.Observe(routine[1]) // outcome matches the issued prompt
	sess.Observe(routine[2])
	sess.Complete()

	// The held transition for state <idle, step0> was learned with the
	// issued specific action, so that action's Q must now be positive.
	s, _ := p.codec.State(adl.StepIdle, routine[0])
	aIssued, _ := p.codec.Action(issued)
	if q := p.table.Get(s, aIssued); q <= 0 {
		t.Errorf("issued action Q = %v, want > 0", q)
	}
}

func TestOnlineSessionFrozenPolicyDoesNotLearn(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{}, sim.RNG(12, "frozen"))
	before := p.table.Clone()
	sess := NewOnlineSession(p, false)
	routine := a.CanonicalRoutine()
	for _, s := range routine {
		sess.Observe(s)
	}
	sess.Complete()
	if p.table.MaxAbsDiff(before) != 0 {
		t.Error("frozen session modified the table")
	}
	if p.Episodes != 0 {
		t.Error("frozen session counted episodes")
	}
}

func TestLearnInitialPromptExtension(t *testing.T) {
	a := adl.TeaMaking()
	routine := a.CanonicalRoutine()

	// Default (paper-faithful): no prediction before the first step.
	plain, _ := NewPlanner(a, Config{}, sim.RNG(20, "plain"))
	for i := 0; i < 150; i++ {
		if err := plain.TrainEpisode(routine); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := plain.Predict(adl.StepIdle, adl.StepIdle); ok {
		t.Error("paper-faithful planner predicted before the first step")
	}

	// Extension on: the virtual <idle, idle> state predicts step one.
	ext, _ := NewPlanner(a, Config{LearnInitialPrompt: true}, sim.RNG(21, "ext"))
	for i := 0; i < 150; i++ {
		if err := ext.TrainEpisode(routine); err != nil {
			t.Fatal(err)
		}
	}
	prompt, ok := ext.Predict(adl.StepIdle, adl.StepIdle)
	if !ok || adl.StepOf(prompt.Tool) != routine[0] {
		t.Errorf("initial prediction = %+v (%v), want tea-box", prompt, ok)
	}
	// The rest of the routine is unaffected.
	if got := ext.Evaluate(cleanEpisodes(routine, 1)); got != 1 {
		t.Errorf("precision with extension = %v", got)
	}
}

func TestOnlineSessionLearnsInitialPrompt(t *testing.T) {
	a := adl.TeaMaking()
	p, _ := NewPlanner(a, Config{LearnInitialPrompt: true}, sim.RNG(22, "online-init"))
	routine := a.CanonicalRoutine()
	sess := NewOnlineSession(p, true)
	for ep := 0; ep < 200; ep++ {
		sess.Reset(true)
		for _, s := range routine {
			sess.Observe(s)
		}
		sess.Complete()
	}
	sess.Reset(true)
	prompt, ok := sess.Predict()
	if !ok || adl.StepOf(prompt.Tool) != routine[0] {
		t.Errorf("session-start prediction = %+v (%v), want first step", prompt, ok)
	}
}

func TestDiscoverRoutines(t *testing.T) {
	a := adl.Dressing()
	r1 := a.CanonicalRoutine()
	r2 := adl.Routine{r1[0], r1[2], r1[1], r1[3]}
	episodes := [][]adl.StepID{r1, r2, r1, r1, r2, r1}
	// Outlier below support threshold:
	episodes = append(episodes, adl.Routine{r1[3], r1[2], r1[1], r1[0]})

	routines := DiscoverRoutines(episodes, 2)
	if len(routines) != 2 {
		t.Fatalf("discovered %d routines, want 2", len(routines))
	}
	if !routines[0].Equal(r1) {
		t.Errorf("most frequent routine = %v, want %v", routines[0], r1)
	}
	if !routines[1].Equal(r2) {
		t.Errorf("second routine = %v, want %v", routines[1], r2)
	}

	all := DiscoverRoutines(episodes, 1)
	if len(all) != 3 {
		t.Errorf("minSupport 1 found %d routines, want 3", len(all))
	}
}

func TestMultiPlannerBeatsSinglePlannerOnMultiRoutineUser(t *testing.T) {
	a := adl.Dressing()
	r1 := a.CanonicalRoutine() // shirt trousers socks shoes
	// socks shirt trousers shoes: the pair state <shirt, trousers> occurs
	// in BOTH routines with different successors (socks vs shoes), which
	// a single pair-state planner cannot represent.
	r2 := adl.Routine{r1[2], r1[0], r1[1], r1[3]}

	rng := sim.RNG(13, "multi")
	var train [][]adl.StepID
	for i := 0; i < 200; i++ {
		if rng.Intn(2) == 0 {
			train = append(train, r1.Clone())
		} else {
			train = append(train, r2.Clone())
		}
	}
	eval := [][]adl.StepID{r1, r2}

	single, _ := NewPlanner(a, Config{}, sim.RNG(14, "single"))
	for _, ep := range train {
		if err := single.TrainEpisode(ep); err != nil {
			t.Fatal(err)
		}
	}

	multi, err := NewMultiPlanner(a, Config{}, sim.RNG(15, "multi2"), []adl.Routine{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range train {
		if err := multi.TrainEpisode(ep); err != nil {
			t.Fatal(err)
		}
	}

	singleP := single.Evaluate(eval)
	multiP := multi.Evaluate(eval)
	if multiP <= singleP {
		t.Errorf("multi precision %v not above single %v", multiP, singleP)
	}
	// After observing [socks, shirt] the multi-planner must identify
	// routine 2 and predict trousers.
	prompt, ok := multi.Predict([]adl.StepID{r2[0], r2[1]}, r2[0], r2[1])
	if !ok || adl.StepOf(prompt.Tool) != r2[2] {
		t.Errorf("multi predicted %+v (%v), want %d", prompt, ok, r2[2])
	}
}

func TestMultiPlannerValidation(t *testing.T) {
	a := adl.Dressing()
	if _, err := NewMultiPlanner(a, Config{}, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Error("empty routine list accepted")
	}
	bad := adl.Routine{adl.StepOf(adl.ToolShirt)}
	if _, err := NewMultiPlanner(a, Config{}, rand.New(rand.NewSource(1)), []adl.Routine{bad}); err == nil {
		t.Error("invalid routine accepted")
	}
}

func TestMultiPlannerIdentify(t *testing.T) {
	a := adl.Dressing()
	r1 := a.CanonicalRoutine()
	r2 := adl.Routine{r1[0], r1[2], r1[1], r1[3]}
	m, err := NewMultiPlanner(a, Config{}, rand.New(rand.NewSource(2)), []adl.Routine{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	if idx, n := m.Identify([]adl.StepID{r1[0], r1[1]}); idx != 0 || n != 2 {
		t.Errorf("Identify(r1 prefix) = (%d, %d)", idx, n)
	}
	if idx, n := m.Identify([]adl.StepID{r2[0], r2[1]}); idx != 1 || n != 2 {
		t.Errorf("Identify(r2 prefix) = (%d, %d)", idx, n)
	}
	if len(m.Routines()) != 2 || m.Planner(0) == nil {
		t.Error("accessors")
	}
}

func TestCodecStateBijectionProperty(t *testing.T) {
	// Property: over every activity in the library, distinct valid
	// (prev, cur) pairs encode to distinct states within range.
	for _, a := range adl.Library() {
		c, err := newCodec(a)
		if err != nil {
			t.Fatal(err)
		}
		symbols := append([]adl.StepID{adl.StepIdle}, a.StepIDs()...)
		seen := map[rl.State][2]adl.StepID{}
		for _, prev := range symbols {
			for _, cur := range symbols {
				s, ok := c.State(prev, cur)
				if !ok {
					t.Fatalf("%s: valid pair (%d,%d) rejected", a.Name, prev, cur)
				}
				if int(s) < 0 || int(s) >= c.NumStates() {
					t.Fatalf("%s: state %d out of range", a.Name, s)
				}
				if other, dup := seen[s]; dup {
					t.Fatalf("%s: pairs %v and (%d,%d) collide at state %d", a.Name, other, prev, cur, s)
				}
				seen[s] = [2]adl.StepID{prev, cur}
			}
		}
		if len(seen) != c.NumStates() {
			t.Errorf("%s: %d states used of %d", a.Name, len(seen), c.NumStates())
		}
	}
}

func TestCodecActionBijectionProperty(t *testing.T) {
	for _, a := range adl.Library() {
		c, err := newCodec(a)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[rl.Action]Prompt{}
		for _, id := range a.StepIDs() {
			for _, level := range []Level{Minimal, Specific} {
				p := Prompt{Tool: adl.ToolOf(id), Level: level}
				act, ok := c.Action(p)
				if !ok {
					t.Fatalf("%s: valid prompt %+v rejected", a.Name, p)
				}
				if got := c.Decode(act); got != p {
					t.Fatalf("%s: Decode(Action(%+v)) = %+v", a.Name, p, got)
				}
				if other, dup := seen[act]; dup {
					t.Fatalf("%s: prompts %+v and %+v collide at action %d", a.Name, other, p, act)
				}
				seen[act] = p
			}
		}
		if len(seen) != c.NumActions() {
			t.Errorf("%s: %d actions used of %d", a.Name, len(seen), c.NumActions())
		}
	}
}

func TestRewardsOfProperty(t *testing.T) {
	// Property: with the paper's rewards, a correct prompt always out-
	// earns a wrong one, and minimal out-earns specific on intermediate
	// steps, for arbitrary (tool, next, terminal) draws.
	r := DefaultRewards()
	a := adl.TeaMaking()
	ids := a.StepIDs()
	f := func(toolIdx, nextIdx uint8, terminal bool, specific bool) bool {
		tool := adl.ToolOf(ids[int(toolIdx)%len(ids)])
		next := ids[int(nextIdx)%len(ids)]
		level := Minimal
		if specific {
			level = Specific
		}
		got := r.Of(Prompt{Tool: tool, Level: level}, next, terminal)
		if adl.StepOf(tool) != next {
			return got == r.Wrong
		}
		correct := r.Of(Prompt{Tool: adl.ToolOf(next), Level: level}, next, terminal)
		if got != correct {
			return false
		}
		if !terminal {
			return r.Of(Prompt{Tool: adl.ToolOf(next), Level: Minimal}, next, false) >
				r.Of(Prompt{Tool: adl.ToolOf(next), Level: Specific}, next, false)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiscoverRoutinesTolerantAbsorbsNoise(t *testing.T) {
	a := adl.Dressing()
	r1 := a.CanonicalRoutine()
	r2 := adl.Routine{r1[2], r1[0], r1[1], r1[3]}

	var episodes [][]adl.StepID
	for i := 0; i < 10; i++ {
		episodes = append(episodes, r1)
	}
	for i := 0; i < 8; i++ {
		episodes = append(episodes, r2)
	}
	// Noisy copies of r1: one step missed by the sensors.
	episodes = append(episodes, r1[:3], adl.Routine{r1[0], r1[2], r1[3]})

	// Exact matching sees four distinct sequences; the noisy ones fall
	// below support.
	exact := DiscoverRoutines(episodes, 3)
	if len(exact) != 2 {
		t.Fatalf("exact clusters = %d", len(exact))
	}

	// Tolerant matching folds the noisy episodes into r1's cluster.
	tolerant := DiscoverRoutinesTolerant(episodes, 3, 1)
	if len(tolerant) != 2 {
		t.Fatalf("tolerant clusters = %d", len(tolerant))
	}
	if !tolerant[0].Equal(r1) || !tolerant[1].Equal(r2) {
		t.Errorf("tolerant routines = %v", tolerant)
	}
	// r1's cluster absorbed the two noisy episodes: it must stay first
	// (12 vs 8) and the noisy sequences must not appear as routines.
	for _, r := range tolerant {
		if len(r) != 4 {
			t.Errorf("truncated episode surfaced as a routine: %v", r)
		}
	}
}

func TestMultiPlannerPersistenceRoundTrip(t *testing.T) {
	a := adl.Dressing()
	r1 := a.CanonicalRoutine()
	r2 := adl.Routine{r1[2], r1[0], r1[1], r1[3]}
	m, err := NewMultiPlanner(a, Config{}, sim.RNG(30, "persist"), []adl.Routine{r1, r2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := m.TrainEpisode(r1); err != nil {
			t.Fatal(err)
		}
		if err := m.TrainEpisode(r2); err != nil {
			t.Fatal(err)
		}
	}
	eval := [][]adl.StepID{r1, r2}
	want := m.Evaluate(eval)
	if want != 1 {
		t.Fatalf("trained precision = %v", want)
	}

	path := filepath.Join(t.TempDir(), "multi.json")
	if err := m.SavePolicies(path, "u"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMultiPlanner(path, a, Config{}, sim.RNG(31, "persist2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Evaluate(eval); got != want {
		t.Errorf("loaded precision = %v, want %v", got, want)
	}
	if len(loaded.Routines()) != 2 || !loaded.Routines()[0].Equal(r1) {
		t.Errorf("routines = %v", loaded.Routines())
	}

	// Wrong activity rejected.
	if _, err := LoadMultiPlanner(path, adl.TeaMaking(), Config{}, sim.RNG(32, "persist3")); err == nil {
		t.Error("tea-making accepted a dressing multi-policy")
	}
}
