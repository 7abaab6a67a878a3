package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"coreda"
)

// Frame kinds of a gateway schedule entry.
const (
	kindHello uint8 = iota + 1
	kindStart
	kindEnd
	kindBeat
)

// toolsPerHousehold is the size of each household's tool-UID block: the
// tea-making activity's four tools, shifted to the household's own IDs.
const toolsPerHousehold = 4

// population is a set of assist-mode households served over TCP. Each
// household owns a disjoint block of tool UIDs (tea-making's shape with
// the IDs shifted), so an LED command, which carries only a tool UID,
// names exactly one household.
type population struct {
	names []string
	base  uint16 // first UID of household 0's block
}

func newPopulation(prefix string, n int, base uint16) *population {
	p := &population{base: base}
	for i := 0; i < n; i++ {
		p.names = append(p.names, fmt.Sprintf("%s%04d", prefix, i))
	}
	return p
}

// index maps household IDs to their index.
func (p *population) index() map[string]int {
	m := make(map[string]int, len(p.names))
	for h, name := range p.names {
		m[name] = h
	}
	return m
}

// uid returns household h's tool UID for step index k.
func (p *population) uid(h, k int) uint16 {
	return p.base + uint16(h*toolsPerHousehold+k)
}

// activity returns tea-making with household h's tool UIDs.
func (p *population) activity(h int) *coreda.Activity {
	return shiftedTeaMaking(coreda.ToolID(p.uid(h, 0)))
}

// toolUIDs lists every household's UID block, for the LED matcher.
func (p *population) toolUIDs() [][]uint16 {
	out := make([][]uint16, len(p.names))
	for h := range p.names {
		for k := 0; k < toolsPerHousehold; k++ {
			out[h] = append(out[h], p.uid(h, k))
		}
	}
	return out
}

// shiftedTeaMaking is the tea-making activity with its tools renumbered
// to base, base+1, ... in step order.
func shiftedTeaMaking(base coreda.ToolID) *coreda.Activity {
	a := coreda.TeaMaking()
	tools := make(map[coreda.ToolID]coreda.Tool, len(a.Tools))
	for i := range a.Steps {
		old := a.Steps[i].Tool
		id := base + coreda.ToolID(i)
		t := a.Tools[old]
		t.ID = id
		tools[id] = t
		a.Steps[i].Tool = id
	}
	a.Tools = tools
	return a
}

// ledMatcher maps a tool UID back to its household. Construction rejects
// UID blocks that collide, because a colliding UID would make an LED
// command ambiguous.
type ledMatcher struct {
	owner []int32 // uid -> household index, -1 for none
}

func newLEDMatcher(blocks [][]uint16) (*ledMatcher, error) {
	m := &ledMatcher{owner: make([]int32, math.MaxUint16+1)}
	for i := range m.owner {
		m.owner[i] = -1
	}
	for h, block := range blocks {
		for _, uid := range block {
			if uid == 0 {
				return nil, fmt.Errorf("household %d uses reserved tool UID 0", h)
			}
			if o := m.owner[uid]; o >= 0 {
				return nil, fmt.Errorf("tool UID %d claimed by households %d and %d", uid, o, h)
			}
			m.owner[uid] = int32(h)
		}
	}
	return m, nil
}

// household returns the household owning uid, or -1.
func (m *ledMatcher) household(uid uint16) int { return int(m.owner[uid]) }

// entry is one frame of a gateway's precomputed send schedule.
type entry struct {
	at   int64 // scheduled send time, ns after traffic start
	kind uint8
	hh   uint16 // household index in the population
	uid  uint16
	seq  uint16
	dur  uint16 // UsageEnd duration, ms
}

// acked reports whether the server acks this frame kind (it acks hellos
// and usage reports; heartbeats only register the node).
func (e *entry) acked() bool { return e.kind != kindBeat }

// usage reports whether the frame is a usage report.
func (e *entry) usage() bool { return e.kind == kindStart || e.kind == kindEnd }

// trafficSpec shapes the open-loop traffic of one population.
type trafficSpec struct {
	Rate     float64       // offered usage frames per second (Poisson)
	BeatRate float64       // offered heartbeats per second (Poisson)
	Conns    int           // gateway connections
	Length   time.Duration // schedule length
}

// script is one household's deterministic behaviour: tea-making
// sessions of four tool uses (start + end frame each), one session in
// three with two adjacent steps swapped — the soak's variation, which
// is what makes the assist-mode tenant issue wrong-tool reminders.
type script struct {
	rng     *rand.Rand
	order   [toolsPerHousehold]int
	pos     int  // next step index into order
	started bool // a start frame awaits its end frame
}

func (s *script) next() (kind uint8, step int, durMs uint16) {
	if s.started {
		s.started = false
		step = s.order[s.pos]
		s.pos++
		return kindEnd, step, uint16(1000 + s.rng.Intn(1000))
	}
	if s.pos == toolsPerHousehold {
		s.pos = 0
	}
	if s.pos == 0 {
		s.order = [toolsPerHousehold]int{0, 1, 2, 3}
		if s.rng.Intn(3) == 0 {
			j := s.rng.Intn(toolsPerHousehold - 1)
			s.order[j], s.order[j+1] = s.order[j+1], s.order[j]
		}
	}
	s.started = true
	return kindStart, s.order[s.pos], 0
}

// buildSchedule turns a seed into every gateway's send schedule. Usage
// frames and heartbeats arrive as two merged Poisson processes; each
// arrival picks a household uniformly, and the household's own script
// decides the frame. Household h is served by gateway h mod Conns, which
// sends a hello whenever the household changes. The same seed always
// gives the same schedules.
func buildSchedule(seed int64, pop *population, spec trafficSpec) [][]entry {
	arrivals := coreda.RNG(seed, "perfbench/arrivals")
	scripts := make([]script, len(pop.names))
	for h, name := range pop.names {
		scripts[h].rng = coreda.RNG(seed, "perfbench/script/"+name)
	}
	out := make([][]entry, spec.Conns)
	current := make([]int, spec.Conns)
	seqs := make([]uint16, spec.Conns)
	for c := range current {
		current[c] = -1
	}
	total := spec.Rate + spec.BeatRate
	limit := float64(spec.Length)
	for t := arrivals.ExpFloat64() / total * 1e9; t < limit; t += arrivals.ExpFloat64() / total * 1e9 {
		beat := arrivals.Float64()*total < spec.BeatRate
		h := arrivals.Intn(len(pop.names))
		c := h % spec.Conns
		e := entry{at: int64(t), hh: uint16(h)}
		if beat {
			e.kind = kindBeat
			e.uid = pop.uid(h, arrivals.Intn(toolsPerHousehold))
		} else {
			kind, step, dur := scripts[h].next()
			e.kind, e.uid, e.dur = kind, pop.uid(h, step), dur
		}
		if current[c] != h {
			current[c] = h
			out[c] = append(out[c], entry{at: e.at, kind: kindHello, hh: e.hh, uid: e.uid, seq: seqs[c]})
			seqs[c]++
		}
		e.seq = seqs[c]
		seqs[c]++
		out[c] = append(out[c], e)
	}
	return out
}

// speedFor is the virtual-seconds-per-wall-second factor that makes a
// household's mean virtual gap between tool uses equal stepGap, given
// that each tool use is two usage frames and a household receives
// rate/households of the offered frames.
func speedFor(stepGap time.Duration, rate float64, households int) float64 {
	wallGap := 2 * float64(households) / rate
	return stepGap.Seconds() / wallGap
}
