package sensornet

import (
	"fmt"
	"time"

	"coreda/internal/adl"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// NodeConfig configures one simulated PAVENET node.
type NodeConfig struct {
	// UID is the node's unique ID; it doubles as the tool ID of the tool
	// the node is attached to.
	UID uint16
	// Sensor is the sensor kind used for usage detection on this tool.
	Sensor adl.SensorKind
	// Threshold is the detection threshold in excitation units.
	// Zero means DefaultThreshold.
	Threshold float64
	// Heartbeat is the liveness beacon interval; zero disables
	// heartbeats.
	Heartbeat time.Duration
	// ClockDriftPPM skews the node's local clock relative to simulated
	// real time, in parts per million (real RTCs drift; downstream code
	// must not trust NodeTime as global time).
	ClockDriftPPM float64
	// BatteryCapacity is the node's energy budget in charge units (see
	// the Energy* constants); zero means unlimited (no battery model).
	BatteryCapacity float64
}

// LEDState is the observable state of one reminder LED.
type LEDState struct {
	// On reports whether the LED is currently lit.
	On bool
	// BlinksLeft is how many more blinks the current command will emit.
	BlinksLeft int
	// Period is the blink period of the current command.
	Period time.Duration
	// TotalBlinks counts blinks emitted since boot.
	TotalBlinks int
}

// Node simulates one PAVENET module: a sampling loop with the 3-of-10
// threshold rule, reliable usage reporting over the radio, reminder LEDs
// and an EEPROM ring log.
type Node struct {
	cfg    NodeConfig
	sched  *sim.Scheduler
	medium *Medium
	src    SampleSource

	window [DetectionWindow]float64
	wpos   int
	filled int

	inUse    bool
	useStart time.Duration
	seq      uint16

	leds   map[wire.LEDColor]*LEDState
	eeprom *eepromLog

	pending map[uint16]*pendingTx
	// rx is the decode target of every received frame and tx the encode
	// buffer of every fire-and-forget frame (heartbeats, acks); the
	// medium copies each frame it carries, so both are reused.
	rx      wire.Frame
	tx      []byte
	boot    time.Duration
	started bool
	stops   []func()
	used    float64 // energy consumed so far

	// Drops counts reliable transmissions abandoned after MaxRetries.
	Drops int
}

type pendingTx struct {
	frame []byte
	tries int
	timer sim.Timer
}

// NewNode creates a node on the given scheduler and medium, fed by src.
// The node is attached to the medium immediately but does not sample until
// Start is called.
func NewNode(cfg NodeConfig, sched *sim.Scheduler, medium *Medium, src SampleSource) *Node {
	if cfg.UID == 0 {
		panic("sensornet: node UID 0 is reserved")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	n := &Node{
		cfg:    cfg,
		sched:  sched,
		medium: medium,
		src:    src,
		leds: map[wire.LEDColor]*LEDState{
			wire.LEDGreen: {},
			wire.LEDRed:   {},
		},
		eeprom:  newEEPROMLog(EEPROMSize),
		pending: make(map[uint16]*pendingTx),
		boot:    sched.Now(),
	}
	medium.attach(n)
	return n
}

// UID returns the node's unique ID.
func (n *Node) UID() uint16 { return n.cfg.UID }

// Start begins the sampling loop (and heartbeats, if configured).
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.stops = append(n.stops, n.sched.Every(SamplePeriod, n.sample))
	if n.cfg.Heartbeat > 0 {
		n.stops = append(n.stops, n.sched.Every(n.cfg.Heartbeat, n.heartbeat))
	}
}

// Stop halts sampling, heartbeats and retransmission timers.
func (n *Node) Stop() {
	for _, stop := range n.stops {
		stop()
	}
	n.stops = nil
	for seq, tx := range n.pending {
		tx.timer.Cancel()
		delete(n.pending, seq)
	}
	n.started = false
}

// InUse reports whether the node currently considers its tool in use.
func (n *Node) InUse() bool { return n.inUse }

// Running reports whether the node's sampling loop is active (false after
// Stop, Crash, or battery exhaustion).
func (n *Node) Running() bool { return n.started }

// Crash models a sudden power loss: sampling, heartbeats and in-flight
// retransmissions stop instantly, the detection window clears, and any
// samples queued on the source are lost (the physical gesture happens
// whether or not the node is alive to see it). The sequence counter
// survives — the real module keeps it in EEPROM — so the gateway's
// duplicate suppression stays sound across reboots.
func (n *Node) Crash() {
	n.Stop()
	n.inUse = false
	n.wpos, n.filled = 0, 0
	n.window = [DetectionWindow]float64{}
	n.flushSource()
}

// Reboot cold-boots a crashed (or stopped) node: the local clock rebases
// to now and sampling resumes. A node with an exhausted battery cannot
// reboot. Samples queued while the node was down are discarded — the
// gestures they encoded are in the past.
func (n *Node) Reboot() {
	if n.Dead() || n.started {
		return
	}
	n.boot = n.sched.Now()
	n.flushSource()
	n.Start()
}

// Drain consumes battery charge directly (chaos testing: a cold snap, a
// stuck LED, a chatty neighbour forcing receives). It is a no-op for
// nodes without a battery model.
func (n *Node) Drain(units float64) {
	if units > 0 {
		n.spend(units)
	}
}

// flushSource discards queued samples on sources that support it.
func (n *Node) flushSource() {
	if f, ok := n.src.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// LED returns a snapshot of the LED with the given color.
func (n *Node) LED(c wire.LEDColor) LEDState {
	if s, ok := n.leds[c]; ok {
		return *s
	}
	return LEDState{}
}

// LogEntries returns the usage records currently held in the EEPROM ring
// log (oldest first).
func (n *Node) LogEntries() []UsageRecord { return n.eeprom.entries() }

// BatteryPercent returns the remaining battery in percent (100 when the
// battery model is disabled).
func (n *Node) BatteryPercent() uint8 {
	if n.cfg.BatteryCapacity <= 0 {
		return 100
	}
	left := 1 - n.used/n.cfg.BatteryCapacity
	if left <= 0 {
		return 0
	}
	return uint8(left * 100)
}

// Dead reports whether the node has exhausted its battery.
func (n *Node) Dead() bool {
	return n.cfg.BatteryCapacity > 0 && n.used >= n.cfg.BatteryCapacity
}

// spend consumes energy and powers the node down when the battery
// empties. It reports whether the node is still alive.
func (n *Node) spend(units float64) bool {
	if n.cfg.BatteryCapacity <= 0 {
		return true
	}
	n.used += units
	if n.used >= n.cfg.BatteryCapacity {
		n.Stop()
		return false
	}
	return true
}

// nodeTime returns the node's local clock in milliseconds since boot,
// including configured drift.
func (n *Node) nodeTime() uint32 {
	elapsed := n.sched.Now() - n.boot
	drifted := float64(elapsed) * (1 + n.cfg.ClockDriftPPM/1e6)
	return uint32(time.Duration(drifted) / time.Millisecond)
}

// sample runs once per SamplePeriod: read the sensor, update the detection
// window, and emit usage transitions.
func (n *Node) sample() {
	if !n.spend(EnergySample) {
		return
	}
	v := n.src.Next()
	n.window[n.wpos] = v
	n.wpos = (n.wpos + 1) % DetectionWindow
	if n.filled < DetectionWindow {
		n.filled++
	}

	hits := 0
	for i := 0; i < n.filled; i++ {
		if n.window[i] > n.cfg.Threshold {
			hits++
		}
	}

	switch {
	case !n.inUse && hits >= DetectionHits:
		n.inUse = true
		n.useStart = n.sched.Now()
		n.seq++
		n.sendReliable(&wire.UsageStart{
			UID:       n.cfg.UID,
			Seq:       n.seq,
			Sensor:    uint8(n.cfg.Sensor),
			NodeTime:  n.nodeTime(),
			Hits:      uint8(hits),
			Threshold: uint16(n.cfg.Threshold * 100),
		})
	case n.inUse && hits < DetectionHits:
		n.inUse = false
		dur := n.sched.Now() - n.useStart
		n.seq++
		n.sendReliable(&wire.UsageEnd{
			UID:        n.cfg.UID,
			Seq:        n.seq,
			NodeTime:   n.nodeTime(),
			DurationMs: uint32(dur / time.Millisecond),
		})
		n.eeprom.append(UsageRecord{UID: n.cfg.UID, Seq: n.seq, Duration: dur})
	}
}

func (n *Node) heartbeat() {
	if !n.spend(EnergyTX) {
		return
	}
	n.seq++
	frame, err := wire.AppendFrame(n.tx[:0], &wire.Heartbeat{
		UID:      n.cfg.UID,
		Seq:      n.seq,
		UptimeMs: n.nodeTime(),
		Battery:  n.BatteryPercent(),
	})
	if err != nil {
		panic(fmt.Sprintf("sensornet: encoding heartbeat: %v", err))
	}
	n.tx = frame
	// Heartbeats are fire-and-forget: no ack, no retransmission.
	n.medium.toGateway(n.cfg.UID, frame)
}

// sendReliable transmits a packet with ack-based retransmission.
// Retransmissions resend the frame, so it gets its own buffer.
func (n *Node) sendReliable(p wire.Packet) {
	frame, err := wire.AppendFrame(nil, p)
	if err != nil {
		panic(fmt.Sprintf("sensornet: encoding %v: %v", p.Type(), err))
	}
	seq := packetSeq(p)
	tx := &pendingTx{frame: frame}
	n.pending[seq] = tx
	n.transmit(seq, tx)
}

func (n *Node) transmit(seq uint16, tx *pendingTx) {
	if !n.spend(EnergyTX) {
		delete(n.pending, seq)
		return
	}
	tx.tries++
	n.medium.toGateway(n.cfg.UID, tx.frame)
	tx.timer = n.sched.After(AckTimeout+n.medium.backoffJitter(), func() {
		if _, still := n.pending[seq]; !still {
			return
		}
		if tx.tries > MaxRetries {
			delete(n.pending, seq)
			n.Drops++
			return
		}
		n.transmit(seq, tx)
	})
}

// receive handles a frame delivered to this node by the medium.
func (n *Node) receive(frame []byte) {
	if err := wire.DecodeInto(&n.rx, frame); err != nil {
		return // corrupted in flight; CRC catches it
	}
	switch pkt := n.rx.Packet().(type) {
	case *wire.Ack:
		if tx, ok := n.pending[pkt.Seq]; ok {
			tx.timer.Cancel()
			delete(n.pending, pkt.Seq)
		}
	case *wire.LEDCommand:
		n.applyLED(pkt)
		ack, err := wire.AppendFrame(n.tx[:0], &wire.Ack{UID: n.cfg.UID, Seq: pkt.Seq})
		if err != nil {
			panic(fmt.Sprintf("sensornet: encoding ack: %v", err))
		}
		n.tx = ack
		n.medium.toGateway(n.cfg.UID, ack)
	}
}

// applyLED starts (or stops) a blink sequence on one LED. Re-applying the
// same command (a retransmitted LEDCommand) restarts the sequence, which
// is harmless for reminders.
func (n *Node) applyLED(cmd *wire.LEDCommand) {
	s, ok := n.leds[cmd.Color]
	if !ok {
		return
	}
	s.BlinksLeft = int(cmd.Blinks)
	s.Period = time.Duration(cmd.PeriodMs) * time.Millisecond
	if cmd.Blinks == 0 {
		s.On = false
		return
	}
	n.blink(cmd.Color)
}

func (n *Node) blink(c wire.LEDColor) {
	s := n.leds[c]
	if s.BlinksLeft <= 0 {
		s.On = false
		return
	}
	if !n.spend(EnergyBlink) {
		s.On = false
		return
	}
	s.On = true
	s.TotalBlinks++
	s.BlinksLeft--
	half := s.Period / 2
	if half <= 0 {
		half = 50 * time.Millisecond
	}
	n.sched.After(half, func() {
		s.On = false
		if s.BlinksLeft > 0 {
			n.sched.After(half, func() { n.blink(c) })
		}
	})
}

// packetSeq extracts the sequence number used for ack matching.
func packetSeq(p wire.Packet) uint16 {
	switch pkt := p.(type) {
	case *wire.UsageStart:
		return pkt.Seq
	case *wire.UsageEnd:
		return pkt.Seq
	case *wire.LEDCommand:
		return pkt.Seq
	case *wire.Ack:
		return pkt.Seq
	case *wire.Heartbeat:
		return pkt.Seq
	default:
		return 0
	}
}

// UsageRecord is one entry of the node's EEPROM ring log.
type UsageRecord struct {
	UID      uint16
	Seq      uint16
	Duration time.Duration
}

// recordSize is the serialized size of a UsageRecord in EEPROM (uid 2,
// seq 2, duration-ms 4).
const recordSize = 8

// eepromLog is a bounded ring of usage records emulating the node's 16 KB
// external EEPROM.
type eepromLog struct {
	capacity int // in records
	records  []UsageRecord
	start    int
}

func newEEPROMLog(bytes int) *eepromLog {
	return &eepromLog{capacity: bytes / recordSize}
}

func (l *eepromLog) append(r UsageRecord) {
	if len(l.records) < l.capacity {
		l.records = append(l.records, r)
		return
	}
	l.records[l.start] = r
	l.start = (l.start + 1) % l.capacity
}

func (l *eepromLog) entries() []UsageRecord {
	out := make([]UsageRecord, 0, len(l.records))
	for i := 0; i < len(l.records); i++ {
		out = append(out, l.records[(l.start+i)%len(l.records)])
	}
	return out
}
