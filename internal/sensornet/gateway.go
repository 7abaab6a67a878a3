package sensornet

import (
	"fmt"
	"sort"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// UsageKind distinguishes start and end of a tool usage.
type UsageKind int

// Usage event kinds.
const (
	UsageStarted UsageKind = iota + 1
	UsageEnded
)

// String returns the kind name.
func (k UsageKind) String() string {
	switch k {
	case UsageStarted:
		return "started"
	case UsageEnded:
		return "ended"
	default:
		return fmt.Sprintf("UsageKind(%d)", int(k))
	}
}

// UsageEvent is the gateway's deduplicated, decoded view of a node usage
// report — the input contract of the sensing subsystem.
type UsageEvent struct {
	// Tool is the tool (== node UID) the event concerns.
	Tool adl.ToolID
	// Kind says whether usage started or ended.
	Kind UsageKind
	// At is the gateway receive time (virtual).
	At time.Duration
	// Duration is how long the tool was used (end events only).
	Duration time.Duration
	// Hits is how many window samples exceeded the threshold when
	// detection fired (start events only).
	Hits int
}

// GatewayStats counts gateway-level events.
type GatewayStats struct {
	UsageStarts int
	UsageEnds   int
	Duplicates  int
	Heartbeats  int
	LEDSent     int
	LEDDropped  int
	// OfflineEvents / OnlineEvents count supervision state transitions
	// (a node declared dead / a dead node reappearing).
	OfflineEvents int
	OnlineEvents  int
}

// SupervisionConfig parameterizes the gateway's node-liveness watchdog.
type SupervisionConfig struct {
	// Interval is how often liveness is checked; it should match the
	// nodes' heartbeat interval. Zero disables supervision.
	Interval time.Duration
	// Deadline is how long a watched node may stay silent — no
	// heartbeat, usage report or ack — before it is declared OFFLINE.
	// Zero means 3×Interval (three missed beats).
	Deadline time.Duration
}

func (c SupervisionConfig) deadline() time.Duration {
	if c.Deadline > 0 {
		return c.Deadline
	}
	return 3 * c.Interval
}

// Gateway is the server-side radio endpoint: it deduplicates node reports,
// acknowledges them, delivers UsageEvents to a handler, and pushes LED
// commands to nodes with ack-based retransmission.
type Gateway struct {
	sched   *sim.Scheduler
	medium  *Medium
	handler func(UsageEvent)

	lastSeq map[uint16]uint16
	seq     uint16
	pending map[uint16]*pendingTx
	battery map[uint16]uint8 // last reported battery percent per node

	// rx is the decode target of every received frame and tx the encode
	// buffer of every ack sent; the medium copies each frame it carries,
	// so both are reused.
	rx wire.Frame
	tx []byte

	// Liveness supervision state.
	watched     []uint16 // sorted; determinism of the check sweep
	lastSeen    map[uint16]time.Duration
	offline     map[uint16]bool
	onNodeState func(uid uint16, online bool)
	supStop     func()

	// Stats accumulates gateway events.
	Stats GatewayStats
}

// NewGateway creates a gateway on the medium. handler receives every
// deduplicated usage event; it may be nil.
func NewGateway(sched *sim.Scheduler, medium *Medium, handler func(UsageEvent)) *Gateway {
	g := &Gateway{
		sched:    sched,
		medium:   medium,
		handler:  handler,
		lastSeq:  make(map[uint16]uint16),
		pending:  make(map[uint16]*pendingTx),
		battery:  make(map[uint16]uint8),
		lastSeen: make(map[uint16]time.Duration),
		offline:  make(map[uint16]bool),
	}
	medium.setGateway(g)
	return g
}

// SetNodeStateHandler installs a callback for supervision transitions:
// online=false when a watched node misses its liveness deadline,
// online=true when a silent node reappears. It fires on the scheduler
// goroutine, in sorted-UID order for simultaneous transitions.
func (g *Gateway) SetNodeStateHandler(fn func(uid uint16, online bool)) { g.onNodeState = fn }

// Watch registers nodes for liveness supervision. Each node starts in the
// ONLINE state with its last-seen stamp set to now, so the deadline clock
// starts immediately.
func (g *Gateway) Watch(uids ...uint16) {
	now := g.sched.Now()
	for _, uid := range uids {
		if _, dup := g.lastSeen[uid]; dup {
			continue
		}
		g.lastSeen[uid] = now
		g.watched = append(g.watched, uid)
	}
	sort.Slice(g.watched, func(i, j int) bool { return g.watched[i] < g.watched[j] })
}

// StartSupervision arms the periodic liveness check. It returns a stop
// function; calling StartSupervision again restarts with the new config.
func (g *Gateway) StartSupervision(cfg SupervisionConfig) (stop func()) {
	if g.supStop != nil {
		g.supStop()
		g.supStop = nil
	}
	if cfg.Interval <= 0 {
		return func() {}
	}
	deadline := cfg.deadline()
	g.supStop = g.sched.Every(cfg.Interval, func() {
		now := g.sched.Now()
		for _, uid := range g.watched {
			if g.offline[uid] || now-g.lastSeen[uid] <= deadline {
				continue
			}
			g.offline[uid] = true
			g.Stats.OfflineEvents++
			if g.onNodeState != nil {
				g.onNodeState(uid, false)
			}
		}
	})
	return g.supStop
}

// Online reports a watched node's supervision state. Unwatched nodes are
// reported online.
func (g *Gateway) Online(uid uint16) bool { return !g.offline[uid] }

// OfflineNodes lists the watched nodes currently declared offline, in
// ascending UID order.
func (g *Gateway) OfflineNodes() []uint16 {
	var out []uint16
	for _, uid := range g.watched {
		if g.offline[uid] {
			out = append(out, uid)
		}
	}
	return out
}

// touch records traffic from a node and flips it back ONLINE if it had
// been declared dead — recovery is symmetric with failure.
func (g *Gateway) touch(uid uint16) {
	if _, watched := g.lastSeen[uid]; !watched {
		return
	}
	g.lastSeen[uid] = g.sched.Now()
	if g.offline[uid] {
		delete(g.offline, uid)
		g.Stats.OnlineEvents++
		if g.onNodeState != nil {
			g.onNodeState(uid, true)
		}
	}
}

// SetHandler replaces the usage-event handler.
func (g *Gateway) SetHandler(handler func(UsageEvent)) { g.handler = handler }

// Battery returns the last battery percentage a node reported via
// heartbeat (ok false before the first heartbeat).
func (g *Gateway) Battery(uid uint16) (uint8, bool) {
	b, ok := g.battery[uid]
	return b, ok
}

// LowBatteryNodes lists nodes whose last report is at or below
// LowBatteryPercent — the gateway's maintenance signal for caregivers.
func (g *Gateway) LowBatteryNodes() []uint16 {
	var out []uint16
	for uid, b := range g.battery {
		if b <= LowBatteryPercent {
			out = append(out, uid)
		}
	}
	return out
}

// SendLED commands a node to blink one of its LEDs. The command is
// retransmitted until acknowledged or MaxRetries is exhausted.
func (g *Gateway) SendLED(uid uint16, color wire.LEDColor, blinks uint8, period time.Duration) {
	g.seq++
	cmd := &wire.LEDCommand{
		UID:      uid,
		Seq:      g.seq,
		Color:    color,
		Blinks:   blinks,
		PeriodMs: uint16(period / time.Millisecond),
	}
	// Retransmissions resend this frame, so it gets its own buffer.
	frame, err := wire.AppendFrame(nil, cmd)
	if err != nil {
		panic(fmt.Sprintf("sensornet: encoding LED command: %v", err))
	}
	g.Stats.LEDSent++
	tx := &pendingTx{frame: frame}
	g.pending[cmd.Seq] = tx
	g.transmit(uid, cmd.Seq, tx)
}

func (g *Gateway) transmit(uid, seq uint16, tx *pendingTx) {
	tx.tries++
	g.medium.toNode(uid, tx.frame)
	tx.timer = g.sched.After(AckTimeout+g.medium.backoffJitter(), func() {
		if _, still := g.pending[seq]; !still {
			return
		}
		if tx.tries > MaxRetries {
			delete(g.pending, seq)
			g.Stats.LEDDropped++
			return
		}
		g.transmit(uid, seq, tx)
	})
}

// receive handles a frame delivered by the medium.
func (g *Gateway) receive(frame []byte) {
	if err := wire.DecodeInto(&g.rx, frame); err != nil {
		return // corrupted in flight
	}
	switch pkt := g.rx.Packet().(type) {
	case *wire.UsageStart:
		g.touch(pkt.UID)
		if !g.accept(pkt.UID, pkt.Seq) {
			return
		}
		g.Stats.UsageStarts++
		g.emit(UsageEvent{
			Tool: adl.ToolID(pkt.UID),
			Kind: UsageStarted,
			At:   g.sched.Now(),
			Hits: int(pkt.Hits),
		})
	case *wire.UsageEnd:
		g.touch(pkt.UID)
		if !g.accept(pkt.UID, pkt.Seq) {
			return
		}
		g.Stats.UsageEnds++
		g.emit(UsageEvent{
			Tool:     adl.ToolID(pkt.UID),
			Kind:     UsageEnded,
			At:       g.sched.Now(),
			Duration: time.Duration(pkt.DurationMs) * time.Millisecond,
		})
	case *wire.Heartbeat:
		g.touch(pkt.UID)
		g.Stats.Heartbeats++
		g.battery[pkt.UID] = pkt.Battery
	case *wire.Ack:
		g.touch(pkt.UID)
		if tx, ok := g.pending[pkt.Seq]; ok {
			tx.timer.Cancel()
			delete(g.pending, pkt.Seq)
		}
	}
}

// accept acknowledges a usage report and returns false if it is a
// retransmission the gateway already processed.
func (g *Gateway) accept(uid, seq uint16) bool {
	ack, err := wire.AppendFrame(g.tx[:0], &wire.Ack{UID: uid, Seq: seq})
	if err != nil {
		panic(fmt.Sprintf("sensornet: encoding ack: %v", err))
	}
	g.tx = ack
	g.medium.toNode(uid, ack)
	// Node sequence numbers are monotonic, so anything not strictly newer
	// (in serial-number arithmetic, robust to uint16 wrap) is a
	// retransmission or a stale reordered copy.
	if last, seen := g.lastSeq[uid]; seen && int16(seq-last) <= 0 {
		g.Stats.Duplicates++
		return false
	}
	g.lastSeq[uid] = seq
	return true
}

func (g *Gateway) emit(e UsageEvent) {
	if g.handler != nil {
		g.handler(e)
	}
}
