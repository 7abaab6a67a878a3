// Package core implements CoReDA's planning subsystem — the paper's
// primary contribution: a TD(λ) Q-learning planner that learns each user's
// personal routine of an ADL from the sensing subsystem's StepID stream
// and produces the prompts the reminding subsystem delivers.
//
// Model (section 2.2 of the paper):
//
//	state  s_i = <StepID_{i-1}, StepID_i>   (previous and current step)
//	action a_i = <ToolID_{i+1}, Level_{i+1}> (which tool to prompt, and
//	                                          whether minimally or
//	                                          specifically)
//	reward    = 1000 for the terminal step of an ADL,
//	            100 for an intermediate step reached via a minimal prompt,
//	            50 via a specific prompt
//
// The 100-vs-50 asymmetry is the paper's "minimal prompt" design
// criterion: the learned policy prefers minimal reminders wherever they
// work, promoting the user "to exercise his/her brain instead of depending
// on the system".
package core

import (
	"fmt"

	"coreda/internal/adl"
	"coreda/internal/rl"
)

// Level is the reminding level of a prompt.
type Level int

// Reminding levels (section 2.3 of the paper).
const (
	// Minimal gives a short message ("use tea-cup") and fewer blinks.
	Minimal Level = iota
	// Specific gives a long personalized message ("Mr. Kim, use the
	// black tea-box in front of you.") and more blinks.
	Specific
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case Minimal:
		return "minimal"
	case Specific:
		return "specific"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Prompt is the planner's action: the tool that should be used next and
// how insistently to remind.
type Prompt struct {
	Tool  adl.ToolID
	Level Level
}

// The paper's reward magnitudes. This const block is the single canonical
// definition (enforced by the rewardconst analyzer): every reward value in
// the codebase, including experiment ablations, must reference these names
// so a re-tuning cannot leave stale raw literals behind.
const (
	// RewardTerminal is paid for prompting the step that completes the ADL.
	RewardTerminal = 1000
	// RewardMinimal is paid for a correct intermediate minimal prompt.
	RewardMinimal = 100
	// RewardSpecific is paid for a correct intermediate specific prompt.
	RewardSpecific = 50
	// RewardWrong is paid for a prompt whose tool does not match the
	// user's actual next step (paper: unstated; 0 by convention).
	RewardWrong = 0
)

// RewardConfig is the paper's reward function, with the wrong-prompt
// outcome exposed for ablation.
type RewardConfig struct {
	// Terminal is the reward for prompting the step that completes the
	// ADL (paper: 1000).
	Terminal float64
	// Minimal is the reward for a correct intermediate minimal prompt
	// (paper: 100).
	Minimal float64
	// Specific is the reward for a correct intermediate specific prompt
	// (paper: 50).
	Specific float64
	// Wrong is the reward for a prompt whose tool does not match the
	// user's actual next step (paper: unstated; 0 by convention).
	Wrong float64
}

// DefaultRewards returns the paper's reward function.
func DefaultRewards() RewardConfig {
	return RewardConfig{Terminal: RewardTerminal, Minimal: RewardMinimal, Specific: RewardSpecific, Wrong: RewardWrong}
}

// Of computes the reward for taking action a when the user's actual next
// step is next, which is (or is not) the terminal step of the routine.
func (r RewardConfig) Of(a Prompt, next adl.StepID, terminal bool) float64 {
	if adl.StepOf(a.Tool) != next {
		return r.Wrong
	}
	if terminal {
		return r.Terminal
	}
	if a.Level == Minimal {
		return r.Minimal
	}
	return r.Specific
}

// codec maps the paper's state/action structure onto the dense integer
// spaces the rl package uses.
//
// Steps are indexed 0 = StepIdle, 1..N = the activity's canonical steps.
// A state is the pair (prev, cur): index prev*(N+1)+cur. An action is the
// pair (tool, level): index tool*2+level.
type codec struct {
	activity *adl.Activity
	steps    []adl.StepID // canonical order
}

func newCodec(a *adl.Activity) (*codec, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &codec{activity: a, steps: a.StepIDs()}, nil
}

// numSteps counts step symbols including idle.
func (c *codec) numSteps() int { return len(c.steps) + 1 }

// NumStates returns the state-space size.
func (c *codec) NumStates() int { return c.numSteps() * c.numSteps() }

// NumActions returns the action-space size (every tool × two levels).
func (c *codec) NumActions() int { return len(c.steps) * 2 }

// stepIndex maps a StepID to its symbol index, or -1 for a step not in
// the activity. An activity has a handful of steps, so a scan beats
// hashing the 16-bit ID; Validate guarantees the steps are unique and
// never idle.
func (c *codec) stepIndex(s adl.StepID) int {
	if s == adl.StepIdle {
		return 0
	}
	for i, id := range c.steps {
		if id == s {
			return i + 1
		}
	}
	return -1
}

// State encodes a (prev, cur) pair; ok is false if either step is foreign
// to the activity.
func (c *codec) State(prev, cur adl.StepID) (rl.State, bool) {
	pi, ci := c.stepIndex(prev), c.stepIndex(cur)
	if pi < 0 || ci < 0 {
		return 0, false
	}
	return rl.State(pi*c.numSteps() + ci), true
}

// Action encodes a prompt; ok is false for tools outside the activity.
func (c *codec) Action(p Prompt) (rl.Action, bool) {
	i := c.stepIndex(adl.StepOf(p.Tool))
	if i <= 0 { // idle (0) is not promptable
		return 0, false
	}
	l := 0
	if p.Level == Specific {
		l = 1
	}
	return rl.Action((i-1)*2 + l), true
}

// Decode converts an action index back to a prompt.
func (c *codec) Decode(a rl.Action) Prompt {
	i := int(a) / 2
	level := Minimal
	if int(a)%2 == 1 {
		level = Specific
	}
	return Prompt{Tool: adl.ToolOf(c.steps[i]), Level: level}
}
