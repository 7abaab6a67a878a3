// Package adl models activities of daily living (ADLs) as sequences of
// steps, each performed with a sensor-instrumented tool.
//
// The model follows the CoReDA paper (ICDCS 2007): every tool of an
// activity carries one wireless sensor node whose unique ID doubles as the
// tool ID, and each step of the activity is identified by the tool that is
// mainly used in that step (its StepID). StepID 0 is reserved to mean
// "nothing has been done for a long time" (the idle pseudo-step).
package adl

import (
	"fmt"
	"time"
)

// ToolID identifies a tool. It equals the unique ID (uid) of the PAVENET
// sensor node attached to the tool. ID 0 is reserved and never identifies a
// real tool.
type ToolID uint16

// NoTool is the zero ToolID; it never identifies a real tool.
const NoTool ToolID = 0

// StepID identifies a step of an activity. Per the paper, a step is
// identified by the ID of the tool mainly used in it, so StepID values are
// drawn from the same space as ToolID values. StepIdle (0) is the
// pseudo-step meaning the user has done nothing for a long time.
type StepID uint16

// StepIdle indicates that nothing has been done for a long time.
const StepIdle StepID = 0

// StepOf converts a tool ID to the step identified by that tool.
func StepOf(t ToolID) StepID { return StepID(t) }

// ToolOf converts a step ID back to the tool that identifies it.
// ToolOf(StepIdle) is NoTool.
func ToolOf(s StepID) ToolID { return ToolID(s) }

// SensorKind enumerates the sensor types carried by a PAVENET node
// (Table 1 of the paper).
type SensorKind int

// Sensor kinds available on a PAVENET node.
const (
	SensorAccelerometer SensorKind = iota + 1 // 3-axis accelerometer
	SensorPressure
	SensorBrightness
	SensorTemperature
	SensorMotion
)

// String returns the human-readable sensor name.
func (k SensorKind) String() string {
	switch k {
	case SensorAccelerometer:
		return "accelerometer"
	case SensorPressure:
		return "pressure"
	case SensorBrightness:
		return "brightness"
	case SensorTemperature:
		return "temperature"
	case SensorMotion:
		return "motion"
	default:
		return fmt.Sprintf("SensorKind(%d)", int(k))
	}
}

// Tool is a physical object used in one or more steps of an activity, with
// a sensor node attached to it.
type Tool struct {
	// ID is the unique ID of the sensor node attached to this tool.
	ID ToolID
	// Name is a short human-readable name ("tea-cup").
	Name string
	// Sensor is the sensor used to detect usage of this tool.
	Sensor SensorKind
	// Picture is a reference (file name or asset key) to the picture of
	// the tool shown by the reminding subsystem.
	Picture string
}

// Step is one step of an activity.
type Step struct {
	// Name is a short human-readable description ("Pour hot water into
	// kettle").
	Name string
	// Tool is the tool mainly used in this step; the step's StepID is
	// StepOf(Tool).
	Tool ToolID
	// TypicalDuration is how long the gesture of this step typically
	// lasts. Short steps are harder to detect with the 3-of-10 threshold
	// rule (the mechanism behind the low precisions in Table 3).
	TypicalDuration time.Duration
	// Intensity is the typical sensor excitation of the gesture relative
	// to the detection threshold (1.0 = right at threshold). Used by the
	// synthetic signal generator.
	Intensity float64
}

// ID returns the step's StepID (the ID of its main tool).
func (s Step) ID() StepID { return StepOf(s.Tool) }

// Activity is an ADL: an ordered canonical sequence of steps performed with
// a set of tools.
//
// The canonical order is only the default; individual users follow personal
// Routines that may reorder the steps.
type Activity struct {
	// Name identifies the activity ("tea-making").
	Name string
	// Steps is the canonical step sequence.
	Steps []Step
	// Tools lists every tool of the activity, keyed by ID.
	Tools map[ToolID]Tool
}

// StepCount returns the number of steps in the canonical sequence.
func (a *Activity) StepCount() int { return len(a.Steps) }

// StepByTool returns the step whose main tool is t.
func (a *Activity) StepByTool(t ToolID) (Step, bool) {
	for _, s := range a.Steps {
		if s.Tool == t {
			return s, true
		}
	}
	return Step{}, false
}

// StepByID returns the step with the given StepID.
func (a *Activity) StepByID(id StepID) (Step, bool) {
	return a.StepByTool(ToolOf(id))
}

// Tool returns the tool with the given ID.
func (a *Activity) Tool(id ToolID) (Tool, bool) {
	t, ok := a.Tools[id]
	return t, ok
}

// StepIDs returns the canonical sequence of StepIDs.
func (a *Activity) StepIDs() []StepID {
	ids := make([]StepID, len(a.Steps))
	for i, s := range a.Steps {
		ids[i] = s.ID()
	}
	return ids
}

// TerminalStep returns the StepID of the last canonical step, which carries
// the large completion reward in the planning subsystem.
func (a *Activity) TerminalStep() StepID {
	if len(a.Steps) == 0 {
		return StepIdle
	}
	return a.Steps[len(a.Steps)-1].ID()
}

// CanonicalRoutine returns the canonical step order as a Routine.
func (a *Activity) CanonicalRoutine() Routine {
	return Routine(a.StepIDs())
}

// Validate checks structural invariants of the activity:
// at least one step, every step's tool declared, no reserved IDs, no two
// steps sharing a tool (the paper's StepID scheme requires a bijection
// between steps and tools), and every declared tool used by some step.
func (a *Activity) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("adl: activity has empty name")
	}
	if len(a.Steps) == 0 {
		return fmt.Errorf("adl: activity %q has no steps", a.Name)
	}
	// An activity has a handful of steps, so the pairwise duplicate scan
	// costs less than building a set, and allocates nothing.
	for i, s := range a.Steps {
		if s.Tool == NoTool {
			return fmt.Errorf("adl: activity %q step %d (%q) uses reserved tool ID 0", a.Name, i, s.Name)
		}
		if _, ok := a.Tools[s.Tool]; !ok {
			return fmt.Errorf("adl: activity %q step %d (%q) uses undeclared tool %d", a.Name, i, s.Name, s.Tool)
		}
		for _, prev := range a.Steps[:i] {
			if prev.Tool == s.Tool {
				return fmt.Errorf("adl: activity %q steps %q and %q share tool %d; StepIDs must be unique per step", a.Name, prev.Name, s.Name, s.Tool)
			}
		}
		if s.TypicalDuration <= 0 {
			return fmt.Errorf("adl: activity %q step %d (%q) has non-positive duration", a.Name, i, s.Name)
		}
		if s.Intensity <= 0 {
			return fmt.Errorf("adl: activity %q step %d (%q) has non-positive intensity", a.Name, i, s.Name)
		}
	}
	// The steps name distinct declared tools, so every tool is used
	// exactly when there are as many tools as steps — and then none can
	// be ID 0, which no step may use. Only the key-matches-ID check is
	// left; it finds the same answer in any iteration order.
	if len(a.Tools) == len(a.Steps) {
		keysMatch := true
		for id, t := range a.Tools {
			keysMatch = keysMatch && id == t.ID
		}
		if keysMatch {
			return nil
		}
	}
	// Something is wrong with the tool map: report the first fault in
	// ascending ID order, so the error is the same on every run.
	for _, id := range SortedToolIDs(a.Tools) {
		t := a.Tools[id]
		if id == NoTool {
			return fmt.Errorf("adl: activity %q declares reserved tool ID 0", a.Name)
		}
		if id != t.ID {
			return fmt.Errorf("adl: activity %q tool map key %d != tool ID %d", a.Name, id, t.ID)
		}
		if _, used := a.StepByTool(id); !used {
			return fmt.Errorf("adl: activity %q declares unused tool %d (%q)", a.Name, id, t.Name)
		}
	}
	return nil
}
