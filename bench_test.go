package coreda_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (section 3) plus the DESIGN.md ablations and micro-benchmarks
// of the hot paths. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benches report paper-relevant metrics (precision,
// convergence iterations) through b.ReportMetric next to the usual
// ns/op, so a bench run regenerates the evaluation numbers.

import (
	"fmt"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/core"
	"coreda/internal/experiments"
	"coreda/internal/rl"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// BenchmarkTable3ExtractPrecision regenerates Table 3: extract precision
// of tool usage over 320 synthesized samples (40 per step).
func BenchmarkTable3ExtractPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(int64(i+1), 40)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Total.Percent(), "overall-%")
		for _, row := range res.Rows {
			if row.Step == "Pour hot water into kettle" {
				b.ReportMetric(row.Precision*100, "pot-%")
			}
			if row.Step == "Dry with a towel" {
				b.ReportMetric(row.Precision*100, "towel-%")
			}
		}
	}
}

// BenchmarkFigure4LearningCurve regenerates Figure 4: the TD(λ)
// Q-learning curves over 120 training samples per ADL, reporting the
// iterations to the paper's two convergence thresholds.
func BenchmarkFigure4LearningCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(int64(i+1), 120, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			switch s.Activity {
			case "tooth-brushing":
				b.ReportMetric(float64(s.Converged["95"]), "tooth-95-iter")
				b.ReportMetric(float64(s.Converged["98"]), "tooth-98-iter")
			case "tea-making":
				b.ReportMetric(float64(s.Converged["95"]), "tea-95-iter")
				b.ReportMetric(float64(s.Converged["98"]), "tea-98-iter")
			}
		}
	}
}

// BenchmarkTable4PredictPrecision regenerates Table 4: predict precision
// over 30 injected incidents per ADL (idle and wrong-tool equally).
func BenchmarkTable4PredictPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(int64(i+1), 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Total.Percent(), "overall-%")
	}
}

// BenchmarkFigure1Scenario replays the Figure 1 tea-making scenario end
// to end (trained system, scripted user errors, reminders and praise).
func BenchmarkFigure1Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tl, err := experiments.RunFigure1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if tl.Len() == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// BenchmarkAblationFastLearning compares plain TD(λ), experience replay
// and the counterfactual sweep (the paper's "fast learning" future work).
func BenchmarkAblationFastLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFastLearningAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			switch row.Name {
			case "plain TD(lambda)":
				b.ReportMetric(row.MeanIter, "plain-iter")
			case "+counterfactual":
				b.ReportMetric(row.MeanIter, "counterfactual-iter")
			case "+replay":
				b.ReportMetric(row.MeanIter, "replay-iter")
			}
		}
	}
}

// BenchmarkAblationLambda sweeps the eligibility-trace decay.
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunLambdaAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.MeanIter, row.Name+"-iter")
		}
	}
}

// BenchmarkAblationsParallel runs the λ ablation through the parrun pool
// at 1 and 4 workers. The output rows are identical; only wall-clock
// differs (on multi-core hosts — a single-core container serializes the
// workers and shows pool overhead instead of speedup).
func BenchmarkAblationsParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunLambdaAblation(workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[len(rows)-1].MeanIter, "lambda0.9-iter")
			}
		})
	}
}

// BenchmarkAblationRewardRatio measures how the minimal:specific reward
// ratio shapes the prompt level the policy converges to.
func BenchmarkAblationRewardRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRewardAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Name == "paper 100:50" {
				b.ReportMetric(row.Extra, "paper-minimal-frac")
			}
			if row.Name == "inverted 50:100" {
				b.ReportMetric(row.Extra, "inverted-minimal-frac")
			}
		}
	}
}

// BenchmarkBaselineComparison regenerates the predictor comparison table.
func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBaselineComparison(int64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.Name == "CoReDA TD(lambda) Q-learning" {
				b.ReportMetric(row.Personalized*100, "coreda-personalized-%")
			}
			if row.Name == "Fixed pre-planned routine" {
				b.ReportMetric(row.Personalized*100, "fixed-personalized-%")
			}
		}
	}
}

// BenchmarkLevelAdaptation measures the closed-loop reminder-level
// adaptation to user compliance.
func BenchmarkLevelAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compliant, noncompliant, err := experiments.RunLevelAdaptation(int64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(compliant, "compliant-minimal-frac")
		b.ReportMetric(noncompliant, "noncompliant-minimal-frac")
	}
}

// BenchmarkAblationAlgorithms compares RL algorithms on the routine task.
func BenchmarkAblationAlgorithms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAlgorithmComparison(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			switch row.Name {
			case "Watkins Q(lambda)":
				b.ReportMetric(row.MeanIter, "watkins-iter")
			case "Expected SARSA":
				b.ReportMetric(row.MeanIter, "expected-sarsa-iter")
			}
		}
	}
}

// BenchmarkSweepNoise regenerates the sensor-noise robustness sweep.
func BenchmarkSweepNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunNoiseSweep(int64(i+1), 15, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.Short*100, "short@maxnoise-%")
		b.ReportMetric(last.Long*100, "long@maxnoise-%")
	}
}

// BenchmarkSweepRadioLoss regenerates the radio-loss robustness sweep.
func BenchmarkSweepRadioLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunLossSweep(int64(i+1), 30, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Loss == 0.3 {
				b.ReportMetric(p.AssistCompleted*100, "assist@30loss-%")
				b.ReportMetric(p.Precision*100, "precision@30loss-%")
			}
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkPlannerTrainEpisode measures one TD(λ) training episode on the
// tea-making state space (counterfactual sweep on).
func BenchmarkPlannerTrainEpisode(b *testing.B) {
	a := adl.TeaMaking()
	p, err := core.NewPlanner(a, core.Config{}, sim.RNG(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	routine := a.CanonicalRoutine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.TrainEpisode(routine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerPredict measures one greedy next-step prediction.
func BenchmarkPlannerPredict(b *testing.B) {
	a := adl.TeaMaking()
	p, err := core.NewPlanner(a, core.Config{}, sim.RNG(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	routine := a.CanonicalRoutine()
	for i := 0; i < 100; i++ {
		if err := p.TrainEpisode(routine); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(routine[0], routine[1])
	}
}

// BenchmarkQLambdaObserve measures one Watkins Q(λ) update on a
// 100-state, 8-action table.
func BenchmarkQLambdaObserve(b *testing.B) {
	table := rl.NewQTable(100, 8, 0)
	learner, err := rl.NewQLambda(rl.DefaultConfig(), table)
	if err != nil {
		b.Fatal(err)
	}
	learner.StartEpisode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rl.State(i % 100)
		learner.Observe(s, rl.Action(i%8), 1, rl.State((i+1)%100), i%50 == 49, true)
	}
}

// BenchmarkWireRoundTrip measures encoding + decoding one usage report.
func BenchmarkWireRoundTrip(b *testing.B) {
	pkt := &wire.UsageStart{UID: 21, Seq: 7, Sensor: 1, NodeTime: 123456, Hits: 4, Threshold: 100}
	buf := make([]byte, 0, wire.MaxFrame)
	var f wire.Frame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := wire.AppendFrame(buf[:0], pkt)
		if err != nil {
			b.Fatal(err)
		}
		if err := wire.DecodeInto(&f, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensorNetworkSecond measures one simulated second (10 samples
// x 4 nodes + radio) of the tea-making deployment.
func BenchmarkSensorNetworkSecond(b *testing.B) {
	sched := sim.New()
	medium := sensornet.NewMedium(sensornet.DefaultMediumConfig(), sched, sim.RNG(1, "bench"))
	sensornet.NewGateway(sched, medium, func(sensornet.UsageEvent) {})
	for _, tool := range adl.TeaMaking().StepIDs() {
		src := sensornet.NewSliceSource(nil, 0.18, sim.RNG(int64(tool), "rest"))
		sensornet.NewNode(sensornet.NodeConfig{UID: uint16(tool), Sensor: adl.SensorAccelerometer}, sched, medium, src).Start()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunUntil(sched.Now() + time.Second)
	}
}

// BenchmarkClosedLoopSession measures one full closed-loop learning
// session (persona + sensors + radio + system).
func BenchmarkClosedLoopSession(b *testing.B) {
	activity := coreda.TeaMaking()
	user := coreda.NewPersona("bench", 0)
	if err := user.SetRoutine(activity, activity.CanonicalRoutine()); err != nil {
		b.Fatal(err)
	}
	s, err := coreda.NewSimulation(coreda.SimulationConfig{Activity: activity, Persona: user, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunSession(coreda.ModeLearn, 5*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
