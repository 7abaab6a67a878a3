// Package sensing implements CoReDA's sensing subsystem: it turns the
// gateway's tool-usage events into the StepID stream the planning
// subsystem consumes.
//
// Responsibilities (section 2.1 of the paper):
//   - map tool IDs to StepIDs for the registered activity (the StepID is
//     "the ID of the tool which is mainly used in this step");
//   - emit the pseudo-step StepID 0 when "nothing is done for a long
//     time", using a per-tool statistical timeout (the paper's footnote:
//     the 30 s in Figure 1 "should be determined from the statistical
//     data" — we learn arrival gaps per tool and fall back to a
//     configurable floor until enough data accumulates);
//   - keep the usage history and per-tool usage-duration statistics.
package sensing

import (
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
	"coreda/internal/stats"
)

// StepEvent is one entry of the extracted StepID sequence.
type StepEvent struct {
	// Step is the extracted StepID (StepIdle for the idle pseudo-step).
	Step adl.StepID
	// At is when the event was extracted.
	At time.Duration
	// Idle reports whether this is an idle-timeout event.
	Idle bool
}

// Config parameterizes the subsystem.
type Config struct {
	// Activity is the ADL whose tools are being monitored.
	Activity *adl.Activity
	// IdleFloor is the idle timeout used until per-tool statistics are
	// available, and the minimum thereafter. The paper's Figure 1 uses
	// 30 s as its example. Zero means 30 s.
	IdleFloor time.Duration
	// IdleCeil caps the statistical timeout. Zero means 2 minutes.
	IdleCeil time.Duration
	// IdleK is the stddev multiplier of the statistical timeout. Zero
	// means 2.
	IdleK float64
	// IdleMinSamples is how many gap observations a tool needs before
	// its statistical timeout applies. Zero means 5.
	IdleMinSamples int
	// MergeGap suppresses a repeated usage of the same tool within this
	// window (picking a tool up twice in quick succession is one step).
	// Zero means 2 s.
	MergeGap time.Duration
}

func (c *Config) fill() error {
	if c.Activity == nil {
		return fmt.Errorf("sensing: Config.Activity is required")
	}
	if c.IdleFloor == 0 {
		c.IdleFloor = 30 * time.Second
	}
	if c.IdleCeil == 0 {
		c.IdleCeil = 2 * time.Minute
	}
	if c.IdleK == 0 {
		c.IdleK = 2
	}
	if c.IdleMinSamples == 0 {
		c.IdleMinSamples = 5
	}
	if c.MergeGap == 0 {
		c.MergeGap = 2 * time.Second
	}
	return nil
}

// Stats counts subsystem events.
type Stats struct {
	Extracted    int // step events delivered
	IdleEvents   int // idle pseudo-steps delivered
	Merged       int // repeated usages merged into the previous step
	UnknownTools int // usage events for tools outside the activity
	UsageEnds    int // end events folded into duration statistics
}

// Subsystem converts usage events to step events. It is single-threaded:
// all calls must come from the simulation scheduler's goroutine (or one
// gateway goroutine in the TCP deployment).
type Subsystem struct {
	cfg     Config
	sched   *sim.Scheduler
	handler func(StepEvent)

	durations stats.Durations // usage length per tool
	gaps      stats.Durations // arrival gap per tool

	history     []StepEvent
	last        adl.StepID
	lastAt      time.Duration
	lastUsageAt time.Duration // last real tool usage; idle events excluded
	expected    adl.ToolID
	idleTimer   sim.Timer
	idleFire    func() // shared idle-timeout callback, built once in New
	running     bool

	// Stats accumulates counters.
	Stats Stats
}

// New creates the subsystem. handler receives every extracted step event.
func New(cfg Config, sched *sim.Scheduler, handler func(StepEvent)) (*Subsystem, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Subsystem{
		cfg:     cfg,
		sched:   sched,
		handler: handler,
	}
	s.idleFire = func() {
		if !s.running {
			return
		}
		// "We also define a StepID 0 to indicate nothing is done for a
		// long time."
		s.emit(StepEvent{Step: adl.StepIdle, At: s.sched.Now(), Idle: true})
	}
	return s, nil
}

// Start begins a monitoring session: history is cleared and the idle
// watchdog armed.
func (s *Subsystem) Start() {
	s.running = true
	s.history = s.history[:0]
	s.last = adl.StepIdle
	s.lastAt = s.sched.Now()
	s.lastUsageAt = s.sched.Now()
	s.expected = adl.NoTool
	s.armIdle()
}

// Stop ends the session and disarms the watchdog.
func (s *Subsystem) Stop() {
	s.running = false
	s.idleTimer.Cancel()
	s.idleTimer = sim.Timer{}
}

// SetExpected tells the subsystem which tool the planner expects next, so
// the idle timeout can use that tool's statistics.
func (s *Subsystem) SetExpected(tool adl.ToolID) {
	s.expected = tool
	if s.running {
		s.armIdle()
	}
}

// History returns the step events of the current session.
func (s *Subsystem) History() []StepEvent {
	return append([]StepEvent(nil), s.history...)
}

// Sequence returns the StepIDs of the current session.
func (s *Subsystem) Sequence() []adl.StepID {
	out := make([]adl.StepID, len(s.history))
	for i, e := range s.history {
		out[i] = e.Step
	}
	return out
}

// Durations exposes the per-tool usage-length statistics.
func (s *Subsystem) Durations() *stats.Durations { return &s.durations }

// IdleTimeout returns the currently applicable idle timeout.
func (s *Subsystem) IdleTimeout() time.Duration {
	if s.expected == adl.NoTool {
		return s.cfg.IdleFloor
	}
	return s.gaps.Timeout(uint32(s.expected), s.cfg.IdleK, s.cfg.IdleMinSamples, s.cfg.IdleFloor, s.cfg.IdleCeil)
}

// HandleUsage consumes one gateway usage event. Wire it as the gateway's
// handler.
func (s *Subsystem) HandleUsage(e sensornet.UsageEvent) {
	if !s.running {
		return
	}
	switch e.Kind {
	case sensornet.UsageStarted:
		s.onStart(e)
	case sensornet.UsageEnded:
		s.Stats.UsageEnds++
		s.durations.Observe(uint32(e.Tool), e.Duration)
	}
}

func (s *Subsystem) onStart(e sensornet.UsageEvent) {
	if _, ok := s.cfg.Activity.StepByTool(e.Tool); !ok {
		s.Stats.UnknownTools++
		return
	}
	step := adl.StepOf(e.Tool)
	if step == s.last && e.At-s.lastAt < s.cfg.MergeGap {
		s.Stats.Merged++
		s.lastAt = e.At
		s.lastUsageAt = e.At
		s.armIdle()
		return
	}
	s.gaps.Observe(uint32(e.Tool), e.At-s.lastUsageAt)
	s.lastUsageAt = e.At
	s.emit(StepEvent{Step: step, At: e.At})
}

func (s *Subsystem) emit(ev StepEvent) {
	s.history = append(s.history, ev)
	s.last = ev.Step
	s.lastAt = ev.At
	s.Stats.Extracted++
	if ev.Idle {
		s.Stats.IdleEvents++
	}
	if s.handler != nil {
		s.handler(ev)
	}
	s.armIdle()
}

// armIdle (re)arms the idle watchdog. Every usage event lands here, so
// the steady-state path reschedules the pending timer in place — no
// Event or closure allocation — and only a fired (or never-armed) timer
// pays for a fresh schedule.
func (s *Subsystem) armIdle() {
	timeout := s.IdleTimeout()
	if s.sched.Reschedule(s.idleTimer, s.sched.Now()+timeout) {
		return
	}
	s.idleTimer = s.sched.After(timeout, s.idleFire)
}
