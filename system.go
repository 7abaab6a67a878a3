package coreda

import (
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/core"
	"coreda/internal/reminding"
	"coreda/internal/sensing"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
	"coreda/internal/store"
	"coreda/internal/wire"
)

// Mode selects how a session treats the user's behaviour.
type Mode int

// Session modes.
const (
	// ModeLearn observes silently: every step feeds the learner, no
	// reminders are issued. This is how a routine is acquired.
	ModeLearn Mode = iota + 1
	// ModeAssist compares behaviour against the learned routine and
	// reminds on the paper's two trigger situations. Learning may
	// continue (SystemConfig.KeepLearning) or the policy stays frozen.
	ModeAssist
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeLearn:
		return "learn"
	case ModeAssist:
		return "assist"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SystemConfig configures a System.
type SystemConfig struct {
	// Activity is the ADL being supported.
	Activity *Activity
	// UserName personalizes specific reminders.
	UserName string
	// Planner tunes the TD(λ) Q-learning planner (zero value = paper
	// defaults).
	Planner PlannerConfig
	// Sensing tunes the sensing subsystem (zero value = defaults; the
	// Activity field is filled in automatically).
	Sensing sensing.Config
	// Reminding tunes the reminding subsystem (zero value = defaults;
	// Activity and UserName are filled in automatically).
	Reminding reminding.Config
	// KeepLearning keeps updating the policy during ModeAssist sessions.
	KeepLearning bool
	// DefaultMode is the mode auto-started sessions use (Hub routing,
	// rtbridge); zero means ModeLearn.
	DefaultMode Mode
	// AssumeBlindSteps lets an assist session advance past a step whose
	// tool's sensor is OFFLINE: after a reminder for the blind step goes
	// unanswered for one more idle period, the step is presumed done and
	// the session moves on, so one dead battery does not freeze the whole
	// routine. Off by default (conservative: never assume).
	AssumeBlindSteps bool
	// InferSkips enables missed-detection recovery: when the "wrong"
	// tool observed is exactly what the policy expects AFTER the
	// expected step, the system infers that the expected step happened
	// but its detection was missed (Table 3: extraction is imperfect)
	// and accepts both steps instead of reminding. The flip side is that
	// a genuinely wrong tool which happens to coincide with the
	// next-next step goes uncorrected, so this deployment-hardening
	// option is off by default (paper-faithful: every mismatch triggers
	// situation 2).
	InferSkips bool
	// Seed drives the planner's exploration. The same seed reproduces
	// the same learned policy for the same inputs.
	Seed int64

	// OnSessionStart is called when a session begins (may be nil).
	OnSessionStart func(Mode)
	// OnStep is called for every step event the sensing subsystem
	// extracts during a session, before the system reacts to it (may be
	// nil). Session recorders hang off this hook.
	OnStep func(StepEvent)
	// OnReminder is called for every delivered reminder (may be nil).
	OnReminder func(Reminder)
	// OnPraise is called for every praise (may be nil).
	OnPraise func(Praise)
	// OnAlert is called for every caregiver alert — a tool's sensor node
	// declared offline, or its recovery (may be nil).
	OnAlert func(CaregiverAlert)
	// OnComplete is called when a session observes every step of the
	// activity (may be nil).
	OnComplete func()
	// LEDs, if non-nil, receives LED blink commands (wire it to a
	// sensornet gateway or a recording fake).
	LEDs reminding.LEDs
}

// SystemStats aggregates the per-subsystem counters.
type SystemStats struct {
	Sensing   sensing.Stats
	Reminding reminding.Stats
	// Sessions counts completed sessions.
	Sessions int
	// WrongToolEvents counts steps rejected as trigger situation 2.
	WrongToolEvents int
	// AcceptedSteps counts steps accepted as routine progress.
	AcceptedSteps int
	// InferredSteps counts expected steps the sensors missed but the
	// system inferred from the step that followed (skip recovery).
	InferredSteps int
	// DegradedEvents counts tool sensors declared offline; Recoveries
	// counts them coming back.
	DegradedEvents int
	Recoveries     int
	// PresumedSteps counts blind steps advanced past without a detection
	// (AssumeBlindSteps).
	PresumedSteps int
}

// System is the full CoReDA stack for one user and one activity.
//
// It is single-threaded: drive it from a sim.Scheduler (simulation) or a
// single gateway goroutine (deployment).
type System struct {
	cfg     SystemConfig
	sched   *sim.Scheduler
	sensing *sensing.Subsystem
	planner *core.Planner
	session *core.OnlineSession
	remind  *reminding.Subsystem

	mode          Mode
	active        bool
	stepsAccepted int
	expected      Prompt
	hasExpected   bool
	// outstanding marks that a reminder was issued and not yet answered;
	// answering it earns praise (Figure 1), and re-triggering before it
	// is answered marks it failed (negative evidence for the learner).
	outstanding bool
	lastPrompt  Prompt

	// offline marks tools whose sensor node the gateway supervision has
	// declared dead; reminders about them escalate and, optionally, blind
	// steps are presumed done (graceful degradation).
	offline map[ToolID]bool

	stats SystemStats
}

// display adapts the System's callbacks to the reminding.Display
// interface.
type display struct{ s *System }

func (d display) ShowReminder(r reminding.Reminder) {
	if d.s.cfg.OnReminder != nil {
		d.s.cfg.OnReminder(r)
	}
}

func (d display) ShowPraise(p reminding.Praise) {
	if d.s.cfg.OnPraise != nil {
		d.s.cfg.OnPraise(p)
	}
}

// alertSink adapts the System's OnAlert callback to reminding.AlertSink.
type alertSink struct{ s *System }

func (a alertSink) ShowAlert(al reminding.Alert) {
	if a.s.cfg.OnAlert != nil {
		a.s.cfg.OnAlert(al)
	}
}

// NewSystem builds the stack on the given scheduler.
func NewSystem(cfg SystemConfig, sched *sim.Scheduler) (*System, error) {
	if cfg.Activity == nil {
		return nil, fmt.Errorf("coreda: SystemConfig.Activity is required")
	}
	if err := cfg.Activity.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		sched:   sched,
		offline: make(map[ToolID]bool),
	}

	planner, err := core.NewPlanner(cfg.Activity, cfg.Planner, sim.RNG(cfg.Seed, "planner"))
	if err != nil {
		return nil, err
	}
	s.planner = planner

	cfg.Sensing.Activity = cfg.Activity
	sensor, err := sensing.New(cfg.Sensing, sched, s.onStep)
	if err != nil {
		return nil, err
	}
	s.sensing = sensor

	cfg.Reminding.Activity = cfg.Activity
	if cfg.Reminding.UserName == "" {
		cfg.Reminding.UserName = cfg.UserName
	}
	rem, err := reminding.New(cfg.Reminding, display{s}, cfg.LEDs)
	if err != nil {
		return nil, err
	}
	s.remind = rem
	rem.SetAlertSink(alertSink{s})
	return s, nil
}

// Planner exposes the planning subsystem (training, persistence,
// inspection).
func (s *System) Planner() *core.Planner { return s.planner }

// Stats returns a snapshot of the aggregated counters.
func (s *System) Stats() SystemStats {
	st := s.stats
	st.Sensing = s.sensing.Stats
	st.Reminding = s.remind.Stats
	return st
}

// Mode returns the current session mode (zero if no session is active).
func (s *System) Mode() Mode { return s.mode }

// DefaultMode returns the mode auto-started sessions use.
func (s *System) DefaultMode() Mode {
	if s.cfg.DefaultMode == 0 {
		return ModeLearn
	}
	return s.cfg.DefaultMode
}

// Active reports whether a session is in progress.
func (s *System) Active() bool { return s.active }

// HandleUsage consumes a gateway usage event; wire it as the
// sensornet.Gateway handler.
func (s *System) HandleUsage(e UsageEvent) { s.sensing.HandleUsage(e) }

// SetToolOnline records a tool sensor's liveness, as reported by gateway
// supervision (wire it via Hub.HandleNodeState or directly as the
// gateway's node-state handler). Transitions raise a caregiver alert;
// repeated reports of the same state are ignored.
func (s *System) SetToolOnline(tool ToolID, online bool) {
	if online != s.offline[tool] {
		return // no transition
	}
	name := fmt.Sprintf("tool %d", int(tool))
	if t, ok := s.cfg.Activity.Tool(tool); ok {
		name = t.Name
	}
	if online {
		delete(s.offline, tool)
		s.stats.Recoveries++
		s.remind.Alert(reminding.Alert{
			At:        s.sched.Now(),
			Tool:      tool,
			Text:      fmt.Sprintf("Sensor node for the %s is back online.", name),
			Recovered: true,
		})
		return
	}
	s.offline[tool] = true
	s.stats.DegradedEvents++
	s.remind.Alert(reminding.Alert{
		At:   s.sched.Now(),
		Tool: tool,
		Text: fmt.Sprintf("Sensor node for the %s is OFFLINE — please check the node and its battery.", name),
	})
}

// Degraded reports whether any tool sensor is currently offline.
func (s *System) Degraded() bool { return len(s.offline) > 0 }

// OfflineTools lists the tools whose sensors are currently offline, in
// ascending ID order.
func (s *System) OfflineTools() []ToolID {
	var out []ToolID
	for _, t := range adl.SortedToolIDs(s.cfg.Activity.Tools) {
		if s.offline[t] {
			out = append(out, t)
		}
	}
	return out
}

// StartSession begins a session in the given mode.
func (s *System) StartSession(mode Mode) {
	s.mode = mode
	s.active = true
	s.stepsAccepted = 0
	s.hasExpected = false
	s.outstanding = false
	learn := mode == ModeLearn || s.cfg.KeepLearning
	// One session object serves every session of the system's life;
	// Reset starts it afresh without reallocating its buffers.
	if s.session == nil {
		s.session = core.NewOnlineSession(s.planner, learn)
	} else {
		s.session.Reset(learn)
	}
	s.sensing.Start()
	if s.cfg.OnSessionStart != nil {
		s.cfg.OnSessionStart(mode)
	}
	// With the initial-prompt extension the session can expect the first
	// step right away, so even a freeze before any tool use is caught.
	if p, ok := s.session.Predict(); ok && mode == ModeAssist {
		s.expected, s.hasExpected = p, true
		s.sensing.SetExpected(p.Tool)
	}
}

// EndSession finishes the session, applying terminal credit when the
// activity completed.
func (s *System) EndSession() {
	if !s.active {
		return
	}
	s.session.Complete()
	s.sensing.Stop()
	s.active = false
	s.stats.Sessions++
}

// Predict returns the system's current expectation of the next tool.
func (s *System) Predict() (Prompt, bool) {
	if s.session == nil {
		return Prompt{}, false
	}
	return s.session.Predict()
}

// TrainEpisodes feeds pre-recorded complete episodes to the planner (bulk
// offline training, e.g. from the node EEPROM logs or a tool-usage
// archive).
func (s *System) TrainEpisodes(episodes [][]StepID) error {
	for i, ep := range episodes {
		if err := s.planner.TrainEpisode(ep); err != nil {
			return fmt.Errorf("coreda: episode %d: %w", i, err)
		}
	}
	return nil
}

// SavePolicy persists the learned policy in the binary CKPT encoding.
func (s *System) SavePolicy(path string) error {
	return store.SavePolicy(path, s.cfg.UserName, s.cfg.Activity.Name, s.planner.Table(), s.planner.Episodes, s.planner.Epsilon())
}

// LoadPolicy restores a previously saved policy into the planner. The
// file must match the activity's state/action shape.
func (s *System) LoadPolicy(path string) error {
	f, table, err := store.LoadPolicy(path)
	if err != nil {
		return err
	}
	if f.Activity != s.cfg.Activity.Name {
		return fmt.Errorf("coreda: policy is for activity %q, system runs %q", f.Activity, s.cfg.Activity.Name)
	}
	if table.NumStates() != s.planner.Table().NumStates() || table.NumActions() != s.planner.Table().NumActions() {
		return fmt.Errorf("coreda: policy shape %dx%d does not match activity", table.NumStates(), table.NumActions())
	}
	if err := s.planner.Table().SetValues(table.Values()); err != nil {
		return err
	}
	// Restore training progress too, so a reloaded system checkpoints
	// byte-for-byte identically and resumed training continues the
	// annealing schedule.
	s.planner.Restore(f.Episodes, f.Epsilon)
	return nil
}

// onStep receives extracted step events from the sensing subsystem.
func (s *System) onStep(e sensing.StepEvent) {
	if !s.active {
		return
	}
	if s.cfg.OnStep != nil {
		s.cfg.OnStep(e)
	}
	if e.Idle {
		s.onIdle(e)
		return
	}
	switch s.mode {
	case ModeLearn:
		s.acceptStep(e, false)
	case ModeAssist:
		if s.hasExpected && adl.StepOf(s.expected.Tool) != e.Step {
			s.onWrongTool(e)
			return
		}
		s.acceptStep(e, s.outstanding)
	}
}

// acceptStep advances the learned chain and updates expectations.
func (s *System) acceptStep(e sensing.StepEvent, praise bool) {
	s.stats.AcceptedSteps++
	s.stepsAccepted++
	s.outstanding = false
	s.remind.NoteProgress(e.At, praise)

	next, ok := s.session.Observe(e.Step)
	s.expected, s.hasExpected = next, ok
	if ok {
		s.sensing.SetExpected(next.Tool)
	}

	if s.stepsAccepted >= s.cfg.Activity.StepCount() {
		done := s.cfg.OnComplete
		s.EndSession()
		if done != nil {
			done()
		}
	}
}

// onIdle handles trigger situation 1: nothing done for the timeout.
func (s *System) onIdle(e sensing.StepEvent) {
	if s.mode != ModeAssist || !s.hasExpected {
		return
	}
	if s.cfg.AssumeBlindSteps && s.offline[s.expected.Tool] && s.outstanding {
		// The expected tool's sensor is blind, so no detection can ever
		// answer the reminder already issued. Presume the step done and
		// move on rather than freezing the whole routine.
		s.stats.PresumedSteps++
		s.acceptStep(sensing.StepEvent{Step: adl.StepOf(s.expected.Tool), At: e.At}, false)
		return
	}
	s.issueReminder(e.At, reminding.TriggerIdle, adl.NoTool)
}

// onWrongTool handles trigger situation 2: an out-of-order tool — unless
// the observed step is exactly what the policy expects AFTER the expected
// step, in which case the expected step was performed but its detection
// was missed (Table 3: extraction is not perfect). The system then infers
// the missed step and accepts the observed one, instead of fighting a
// user who is actually on track.
func (s *System) onWrongTool(e sensing.StepEvent) {
	if s.cfg.InferSkips && s.inferSkip(e) {
		return
	}
	s.stats.WrongToolEvents++
	s.issueReminder(e.At, reminding.TriggerWrongTool, adl.ToolOf(e.Step))
}

// inferSkip checks whether e is explainable as "expected step missed by
// the sensors, user already on the step after it" and, if so, feeds the
// inferred step through before accepting e.
func (s *System) inferSkip(e sensing.StepEvent) bool {
	expectedStep := adl.StepOf(s.expected.Tool)
	_, cur, ok := s.session.Current()
	if !ok {
		return false
	}
	after, ok := s.planner.Predict(cur, expectedStep)
	if !ok || adl.StepOf(after.Tool) != e.Step {
		return false
	}
	s.stats.InferredSteps++
	s.acceptStep(sensing.StepEvent{Step: expectedStep, At: e.At}, false)
	if s.active { // accepting the inferred step may have completed the session
		s.acceptStep(e, s.outstanding)
	}
	return true
}

func (s *System) issueReminder(at time.Duration, trigger reminding.Trigger, wrongTool ToolID) {
	if s.outstanding {
		// The previous reminder went unanswered: negative evidence.
		s.session.NoteFailedPrompt(s.lastPrompt)
	}
	prompt := s.expected
	if p, ok := s.session.DeliverablePrompt(); ok {
		prompt = p
	}
	if s.offline[prompt.Tool] && prompt.Level != core.Specific {
		// The tool's green LED cannot blink while its node is dead, so the
		// remaining channels carry the full load: always go specific.
		prompt.Level = core.Specific
	}
	r, err := s.remind.Remind(at, prompt, trigger, wrongTool)
	if err != nil {
		return
	}
	s.outstanding = true
	s.lastPrompt = Prompt{Tool: r.Tool, Level: r.Level}
	// Tell the learner what was actually delivered (level may have been
	// escalated above the planner's choice).
	s.session.NotePrompt(s.lastPrompt)
}

// GatewayLEDs adapts a sensornet gateway to the reminding.LEDs interface,
// closing the loop from reminders back to the tools' radio nodes.
type GatewayLEDs struct {
	// Gateway is the radio endpoint commands are sent through.
	Gateway *sensornet.Gateway
}

// Blink implements reminding.LEDs.
func (g GatewayLEDs) Blink(tool ToolID, color wire.LEDColor, blinks int, period time.Duration) {
	if blinks < 0 {
		blinks = 0
	}
	if blinks > 255 {
		blinks = 255
	}
	g.Gateway.SendLED(uint16(tool), color, uint8(blinks), period)
}
