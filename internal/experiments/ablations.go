package experiments

import (
	"fmt"

	"coreda/internal/adl"
	"coreda/internal/baseline"
	"coreda/internal/core"
	"coreda/internal/parrun"
	"coreda/internal/persona"
	"coreda/internal/rl"
	"coreda/internal/sim"
	"coreda/internal/stats"
)

// AblationRow is one arm of an ablation: a named configuration and the
// iterations its greedy policy needed to reach full routine precision
// (averaged over seeds; cap+1 when an arm never converged).
type AblationRow struct {
	Name     string
	MeanIter float64
	// Extra carries an arm-specific metric (e.g. fraction of minimal
	// prompts for the reward ablation).
	Extra float64
}

// ablationSeeds is how many seeds each arm is averaged over.
const ablationSeeds = 30

// ablationCap bounds the episodes per arm.
const ablationCap = 300

// iterationsToPerfect trains on clean episodes for the full cap and
// returns the iteration from which the greedy policy predicts the whole
// routine and never regresses (cap+1 if it never converges). The
// stay-converged criterion avoids crediting transient lucky orderings.
func iterationsToPerfect(a *adl.Activity, cfg core.Config, seed int64, stream string) (int, error) {
	p, err := core.NewPlanner(a, cfg, sim.RNG(seed, stream))
	if err != nil {
		return 0, err
	}
	routine := a.CanonicalRoutine()
	eval := [][]adl.StepID{routine}
	curve := &stats.Curve{}
	for i := 1; i <= ablationCap; i++ {
		if err := p.TrainEpisode(routine); err != nil {
			return 0, err
		}
		curve.Append(i, p.Evaluate(eval))
	}
	if it, ok := curve.ConvergedAt(1); ok {
		return it, nil
	}
	return ablationCap + 1, nil
}

// meanIterations averages iterationsToPerfect over the ablation seeds,
// fanning the independent seeded trials across workers. Each trial owns
// its own planner and named RNG stream, and the integer iteration counts
// are summed by seed index, so the mean is bit-identical at any worker
// count.
func meanIterations(a *adl.Activity, cfg core.Config, stream string, workers int) (float64, error) {
	iters, err := parrun.Map(ablationSeeds, workers, func(seed int) (int, error) {
		return iterationsToPerfect(a, cfg, int64(seed), stream)
	})
	if err != nil {
		return 0, err
	}
	sum := 0
	for _, it := range iters {
		sum += it
	}
	return float64(sum) / ablationSeeds, nil
}

// RunLambdaAblation sweeps the eligibility-trace decay λ with the
// counterfactual sweep disabled (plain TD(λ), where λ is load-bearing).
// The arm × seed trials run across workers (<= 0 means GOMAXPROCS).
func RunLambdaAblation(workers int) ([]AblationRow, error) {
	activity := adl.TeaMaking()
	lambdas := []float64{0, 0.3, 0.6, 0.9}
	// Flatten arms × seeds into one trial index space so a single pool
	// keeps every worker busy across arm boundaries.
	iters, err := parrun.Map(len(lambdas)*ablationSeeds, workers, func(i int) (int, error) {
		lambda := lambdas[i/ablationSeeds]
		seed := int64(i % ablationSeeds)
		cfg := core.Config{
			NoCounterfactual: true,
			RL:               rl.Config{Alpha: 0.8, Gamma: 0.5, Lambda: lambda, Traces: rl.ReplacingTraces},
		}
		return iterationsToPerfect(activity, cfg, seed, fmt.Sprintf("ablation/lambda/%v", lambda))
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for li, lambda := range lambdas {
		sum := 0
		for _, it := range iters[li*ablationSeeds : (li+1)*ablationSeeds] {
			sum += it
		}
		rows = append(rows, AblationRow{Name: fmt.Sprintf("lambda=%.1f", lambda), MeanIter: float64(sum) / ablationSeeds})
	}
	return rows, nil
}

// RunFastLearningAblation compares the learning accelerators: plain
// TD(λ), TD(λ)+replay, the counterfactual sweep, and both — quantifying
// the paper's "fast learning" future-work item. Trials run across
// workers.
func RunFastLearningAblation(workers int) ([]AblationRow, error) {
	activity := adl.TeaMaking()
	arms := []struct {
		name string
		cfg  core.Config
	}{
		{"plain TD(lambda)", core.Config{NoCounterfactual: true}},
		{"+replay", core.Config{NoCounterfactual: true, ReplaySize: 256, ReplayPerEpisode: 64}},
		{"+counterfactual", core.Config{}},
		{"+both", core.Config{ReplaySize: 256, ReplayPerEpisode: 64}},
	}
	iters, err := parrun.Map(len(arms)*ablationSeeds, workers, func(i int) (int, error) {
		arm := arms[i/ablationSeeds]
		seed := int64(i % ablationSeeds)
		return iterationsToPerfect(activity, arm.cfg, seed, "ablation/fast/"+arm.name)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for ai, arm := range arms {
		sum := 0
		for _, it := range iters[ai*ablationSeeds : (ai+1)*ablationSeeds] {
			sum += it
		}
		rows = append(rows, AblationRow{Name: arm.name, MeanIter: float64(sum) / ablationSeeds})
	}
	return rows, nil
}

// RunRewardAblation varies the minimal:specific reward ratio and reports
// the fraction of intermediate prompts the converged greedy policy issues
// at the minimal level. The paper's 100:50 ratio is what encodes the
// "minimal prompt" design criterion. Trials run across workers.
func RunRewardAblation(workers int) ([]AblationRow, error) {
	activity := adl.TeaMaking()
	routine := activity.CanonicalRoutine()
	arms := []struct {
		name    string
		rewards core.RewardConfig
	}{
		{"paper 100:50", core.DefaultRewards()},
		{"equal 100:100", core.RewardConfig{Terminal: core.RewardTerminal, Minimal: core.RewardMinimal, Specific: core.RewardMinimal}},
		{"inverted 50:100", core.RewardConfig{Terminal: core.RewardTerminal, Minimal: core.RewardSpecific, Specific: core.RewardMinimal}},
	}
	// Each trial returns its own counter; per-arm counters are merged in
	// seed order (integer sums, so identical at any worker count).
	counts, err := parrun.Map(len(arms)*ablationSeeds, workers, func(i int) (stats.Counter, error) {
		arm := arms[i/ablationSeeds]
		seed := int64(i % ablationSeeds)
		minimal := stats.Counter{}
		p, err := core.NewPlanner(activity, core.Config{Rewards: arm.rewards}, sim.RNG(seed, "ablation/reward/"+arm.name))
		if err != nil {
			return minimal, err
		}
		for i := 0; i < 150; i++ {
			if err := p.TrainEpisode(routine); err != nil {
				return minimal, err
			}
		}
		// Count the level of intermediate greedy prompts (the terminal
		// prompt's reward is level-independent).
		prev := adl.StepIdle
		for i := 0; i+2 < len(routine); i++ {
			prompt, ok := p.Predict(prev, routine[i])
			if ok {
				minimal.Observe(prompt.Level == core.Minimal)
			}
			prev = routine[i]
		}
		return minimal, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for ai, arm := range arms {
		minimal := stats.Counter{}
		for _, c := range counts[ai*ablationSeeds : (ai+1)*ablationSeeds] {
			minimal.Hits += c.Hits
			minimal.Trials += c.Trials
		}
		rows = append(rows, AblationRow{Name: arm.name, Extra: minimal.Rate()})
	}
	return rows, nil
}

// ComparisonRow is one predictor in the baseline comparison.
type ComparisonRow struct {
	Name string
	// Personalized is the prediction precision on a user whose routine
	// reorders the canonical plan.
	Personalized float64
	// MultiRoutine is the precision on a user alternating between two
	// routines of the dressing ADL.
	MultiRoutine float64
}

// plannerPredictor adapts the CoReDA planner to baseline.Predictor.
type plannerPredictor struct{ p *core.Planner }

func (pp plannerPredictor) PredictNext(prev, cur adl.StepID) (adl.ToolID, bool) {
	prompt, ok := pp.p.Predict(prev, cur)
	return prompt.Tool, ok
}

// RunBaselineComparison pits CoReDA against the related-work baselines on
// the two situations the paper's introduction motivates: personalized
// routines (prior pre-planned systems fail) and multi-routine users (the
// paper's future-work item). The training sets are built sequentially
// (one shared RNG stream); the independent predictors then train and
// evaluate across workers. Every predictor draws from its own named
// streams, so the rows are identical at any worker count.
func RunBaselineComparison(seed int64, workers int) ([]ComparisonRow, error) {
	// Personalized user: tea-making in a non-canonical order.
	tea := adl.TeaMaking()
	r := tea.CanonicalRoutine()
	personal := adl.Routine{r[1], r[0], r[2], r[3]}
	personalTrain := make([][]adl.StepID, 120)
	for i := range personalTrain {
		personalTrain[i] = personal
	}
	personalEval := [][]adl.StepID{personal}

	// Multi-routine user: dressing with two alternating orders that
	// collide in pair-state space.
	dress := adl.Dressing()
	d1 := dress.CanonicalRoutine()
	d2 := adl.Routine{d1[2], d1[0], d1[1], d1[3]}
	rng := sim.RNG(seed, "comparison/mix")
	var mixTrain [][]adl.StepID
	for i := 0; i < 200; i++ {
		if rng.Intn(2) == 0 {
			mixTrain = append(mixTrain, d1)
		} else {
			mixTrain = append(mixTrain, d2)
		}
	}
	mixEval := [][]adl.StepID{d1, d2}

	// trainPlanner trains a fresh CoReDA planner on its own named stream;
	// called from multiple rows, the identical stream reproduces the
	// identical table.
	trainPlanner := func(a *adl.Activity, stream string, train [][]adl.StepID) (*core.Planner, error) {
		p, err := core.NewPlanner(a, core.Config{}, sim.RNG(seed, stream))
		if err != nil {
			return nil, err
		}
		for _, ep := range train {
			if err := p.TrainEpisode(ep); err != nil {
				return nil, err
			}
		}
		return p, nil
	}

	builders := []func() (ComparisonRow, error){
		func() (ComparisonRow, error) {
			teaPlanner, err := trainPlanner(tea, "comparison/coreda-tea", personalTrain)
			if err != nil {
				return ComparisonRow{}, err
			}
			dressPlanner, err := trainPlanner(dress, "comparison/coreda-dress", mixTrain)
			if err != nil {
				return ComparisonRow{}, err
			}
			return ComparisonRow{
				Name:         "CoReDA TD(lambda) Q-learning",
				Personalized: baseline.Evaluate(plannerPredictor{teaPlanner}, personalEval),
				MultiRoutine: baseline.Evaluate(plannerPredictor{dressPlanner}, mixEval),
			}, nil
		},
		func() (ComparisonRow, error) {
			teaPlanner, err := trainPlanner(tea, "comparison/coreda-tea", personalTrain)
			if err != nil {
				return ComparisonRow{}, err
			}
			multi, err := core.NewMultiPlanner(dress, core.Config{}, sim.RNG(seed, "comparison/multi"), []adl.Routine{d1, d2})
			if err != nil {
				return ComparisonRow{}, err
			}
			for _, ep := range mixTrain {
				if err := multi.TrainEpisode(ep); err != nil {
					return ComparisonRow{}, err
				}
			}
			return ComparisonRow{
				Name:         "CoReDA multi-routine extension",
				Personalized: baseline.Evaluate(plannerPredictor{teaPlanner}, personalEval),
				MultiRoutine: multi.Evaluate(mixEval),
			}, nil
		},
		func() (ComparisonRow, error) {
			teaMarkov := baseline.NewMarkov()
			for _, ep := range personalTrain {
				teaMarkov.Train(ep)
			}
			dressMarkov := baseline.NewMarkov()
			for _, ep := range mixTrain {
				dressMarkov.Train(ep)
			}
			return ComparisonRow{
				Name:         "First-order Markov",
				Personalized: baseline.Evaluate(teaMarkov, personalEval),
				MultiRoutine: baseline.Evaluate(dressMarkov, mixEval),
			}, nil
		},
		func() (ComparisonRow, error) {
			return ComparisonRow{
				Name:         "Fixed pre-planned routine",
				Personalized: baseline.Evaluate(baseline.NewFixedPlan(tea), personalEval),
				MultiRoutine: baseline.Evaluate(baseline.NewFixedPlan(dress), mixEval),
			}, nil
		},
		func() (ComparisonRow, error) {
			return ComparisonRow{
				Name:         "MDP value-iteration planner",
				Personalized: baseline.Evaluate(baseline.NewMDPPlanner(tea, 0.9, 0.95), personalEval),
				MultiRoutine: baseline.Evaluate(baseline.NewMDPPlanner(dress, 0.9, 0.95), mixEval),
			}, nil
		},
		func() (ComparisonRow, error) {
			return ComparisonRow{
				Name:         "Random guess",
				Personalized: baseline.Evaluate(baseline.NewRandomGuess(tea, sim.RNG(seed, "comparison/rand-tea")), repeat(personalEval, 50)),
				MultiRoutine: baseline.Evaluate(baseline.NewRandomGuess(dress, sim.RNG(seed, "comparison/rand-dress")), repeat(mixEval, 50)),
			}, nil
		},
	}
	return parrun.Map(len(builders), workers, func(i int) (ComparisonRow, error) {
		return builders[i]()
	})
}

func repeat(eval [][]adl.StepID, times int) [][]adl.StepID {
	out := make([][]adl.StepID, 0, len(eval)*times)
	for i := 0; i < times; i++ {
		out = append(out, eval...)
	}
	return out
}

// RunLevelAdaptation runs the closed-loop level experiment: two users with
// different compliance profiles keep learning during assist sessions; the
// converged policies should prefer minimal prompts for the user who
// responds to them and escalate for the user who does not. It returns the
// fraction of minimal-level greedy prompts per user, with the independent
// per-seed sessions fanned across workers.
func RunLevelAdaptation(seed int64, workers int) (compliant, noncompliant float64, err error) {
	measure := func(complyMinimal float64, stream string) (float64, error) {
		activity := adl.TeaMaking()
		routine := activity.CanonicalRoutine()
		// A raised exploration floor keeps level exploration alive, so a
		// locked-in level choice can always be revisited as the user's
		// responsiveness evolves.
		p, err := core.NewPlanner(activity, core.Config{EpsilonMin: 0.1}, sim.RNG(seed, stream))
		if err != nil {
			return 0, err
		}
		sess := core.NewOnlineSession(p, true)
		rng := sim.RNG(seed, stream+"/user")
		user := persona.NewProfile("subject", 0.5)
		user.ComplyMinimal = complyMinimal
		user.ComplySpecific = 0.97

		const episodes, window = 400, 100
		delivered := stats.Counter{}
		for ep := 0; ep < episodes; ep++ {
			sess.Reset(true)
			for i, step := range routine {
				// From the second step on the user freezes and must be
				// prompted. A prompt the user ignores is recorded as
				// failed (negative evidence) and the system escalates to
				// a specific reminder until one lands.
				if i > 0 {
					if prompt, ok := sess.DeliverablePrompt(); ok {
						if ep >= episodes-window && i+1 < len(routine) {
							delivered.Observe(prompt.Level == core.Minimal)
						}
						for try := 0; try < 5; try++ {
							sess.NotePrompt(prompt)
							if user.Complies(prompt.Level == core.Specific, rng) {
								break
							}
							sess.NoteFailedPrompt(prompt)
							prompt.Level = core.Specific // escalation
						}
					}
				}
				sess.Observe(step)
			}
			sess.Complete()
		}
		return delivered.Rate(), nil
	}

	const levelSeeds = 5
	type pair struct{ c, n float64 }
	pairs, err := parrun.Map(levelSeeds, workers, func(s int) (pair, error) {
		c, err := measure(0.95, fmt.Sprintf("ablation/level/compliant/%d", seed+int64(s)))
		if err != nil {
			return pair{}, err
		}
		n, err := measure(0.05, fmt.Sprintf("ablation/level/noncompliant/%d", seed+int64(s)))
		if err != nil {
			return pair{}, err
		}
		return pair{c, n}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	// Accumulate in seed order: the float additions happen in exactly the
	// sequence the sequential loop used.
	for _, p := range pairs {
		compliant += p.c / levelSeeds
		noncompliant += p.n / levelSeeds
	}
	return compliant, noncompliant, nil
}
