// Package rtbridge runs the CoReDA stack against real network sockets and
// wall-clock time: sensor nodes (cmd/coreda-node, or real PAVENET bridges)
// connect over TCP speaking the wire frame format, and the virtual-time
// scheduler the subsystems run on is pumped from the wall clock — with an
// optional speed-up factor so demonstrations do not take real minutes.
//
// Concurrency model: the scheduler and System are single-threaded and
// owned by the Run loop; connection readers forward decoded packets into
// the loop through a channel. LED commands are written back to the
// originating connection (each UID's latest connection wins).
package rtbridge

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"coreda"
	"coreda/internal/reminding"
	"coreda/internal/sensornet"
	"coreda/internal/sim"
	"coreda/internal/wire"
)

// ServerConfig configures a bridge server.
type ServerConfig struct {
	// System configures the CoReDA stack (Activity required). The LEDs
	// sink is installed by the server.
	System coreda.SystemConfig
	// Speed is how many simulated seconds elapse per wall-clock second
	// (zero means 1).
	Speed float64
	// Tick is the clock-pump granularity (zero means 50 ms of wall
	// time).
	Tick time.Duration
	// Mode is the session mode auto-started when usage arrives while no
	// session is active (zero means ModeLearn).
	Mode coreda.Mode
	// ReadTimeout, when positive, bounds each frame read on a node
	// connection (wall clock). A connection silent for longer is closed
	// and its reader goroutine reaped — without it, a node that vanishes
	// without a FIN (power cut, cable pull) leaks a blocked goroutine
	// forever. Set it above the nodes' heartbeat interval.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each frame write (acks, LED
	// commands) so a peer with a full receive buffer cannot wedge the
	// writer (wall clock).
	WriteTimeout time.Duration
	// Supervision, when Interval > 0, arms node-liveness supervision in
	// virtual time: nodes that have registered (any traffic) and then gone
	// silent past the deadline are declared OFFLINE to the Hub, which
	// degrades the owning system; traffic flips them back. Intervals are
	// virtual-time, so they scale with Speed.
	Supervision sensornet.SupervisionConfig
	// OnLog receives human-readable event lines (may be nil).
	OnLog func(string)
}

// Server bridges TCP sensor nodes to CoReDA systems in wall-clock time.
// It routes through a Hub, so one server can support several activities
// at once (AddActivity); NewServer's ServerConfig.System is simply the
// first activity added.
type Server struct {
	cfg   ServerConfig
	sched *sim.Scheduler
	hub   *coreda.Hub
	sys   *coreda.System // the first activity's system, for convenience

	packets chan routedPacket
	done    chan struct{}
	stopped sync.Once

	mu    sync.Mutex
	conns map[uint16]*nodeConn
	all   map[*nodeConn]struct{}
	seq   uint16

	// Liveness state, owned by the Run goroutine (virtual time).
	lastSeen map[uint16]time.Duration
	offline  map[uint16]bool

	// touched lists connections with queued-but-unflushed frames; the Run
	// loop flushes each exactly once per batch. ackPkt/ledPkt are reusable
	// packet scratch for the write path. All owned by the Run goroutine.
	touched []*nodeConn
	ackPkt  wire.Ack
	ledPkt  wire.LEDCommand
}

type routedPacket struct {
	// frame carries the decoded packet by value across the channel, so
	// forwarding a packet to the loop does not allocate.
	frame wire.Frame
	conn  *nodeConn
	// fn, when non-nil, is a closure to run on the loop goroutine
	// instead of a packet (see Do).
	fn func()
}

type nodeConn struct {
	c       net.Conn
	timeout time.Duration
	wm      sync.Mutex // guards w
	w       *wire.Writer
	// pending says the conn is on the server's touched list awaiting
	// flush; owned by the Run goroutine.
	pending bool
}

// queue appends p's frame to the connection's write buffer; it reaches
// the socket at the next flush.
func (nc *nodeConn) queue(p wire.Packet) error {
	nc.wm.Lock()
	defer nc.wm.Unlock()
	return nc.w.QueuePacket(p)
}

// flush writes every queued frame in one syscall.
func (nc *nodeConn) flush() error {
	nc.wm.Lock()
	defer nc.wm.Unlock()
	if nc.w.Buffered() == 0 {
		return nil
	}
	if nc.timeout > 0 {
		nc.c.SetWriteDeadline(time.Now().Add(nc.timeout))
	}
	//coreda:vet-ignore lockheld wm exists to serialize whole frames onto the socket; holding it across the flush is the point
	return nc.w.Flush()
}

// release recycles the writer's pooled buffer once the connection is
// done.
func (nc *nodeConn) release() {
	nc.wm.Lock()
	nc.w.Release()
	nc.wm.Unlock()
}

// NewServer builds the stack. Call Run to start the clock pump, then
// Serve (or HandleConn) to attach connections.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	if cfg.Mode == 0 {
		cfg.Mode = coreda.ModeLearn
	}
	s := &Server{
		cfg:      cfg,
		sched:    sim.New(),
		packets:  make(chan routedPacket, 256),
		done:     make(chan struct{}),
		conns:    make(map[uint16]*nodeConn),
		all:      make(map[*nodeConn]struct{}),
		lastSeen: make(map[uint16]time.Duration),
		offline:  make(map[uint16]bool),
	}
	s.hub = coreda.NewHub(s.sched)
	s.hub.SetUnknownHandler(func(e coreda.UnknownEvent) {
		switch e.Kind {
		case coreda.UnknownNodeState:
			s.log(fmt.Sprintf("node-state (online=%v) for unknown tool %d", e.Online, e.Tool))
		default:
			s.log(fmt.Sprintf("usage from unknown tool %d", e.Tool))
		}
	})
	sys, err := s.AddActivity(cfg.System)
	if err != nil {
		return nil, err
	}
	s.sys = sys
	if cfg.Supervision.Interval > 0 {
		s.startSupervision()
	}
	return s, nil
}

// startSupervision arms the virtual-time liveness sweep. It runs on the
// scheduler, i.e. on the Run goroutine, so it may touch lastSeen/offline
// and the Hub directly.
func (s *Server) startSupervision() {
	deadline := s.cfg.Supervision.Deadline
	if deadline <= 0 {
		deadline = 3 * s.cfg.Supervision.Interval
	}
	s.sched.Every(s.cfg.Supervision.Interval, func() {
		now := s.sched.Now()
		for _, uid := range sortedUIDs(s.lastSeen) {
			if s.offline[uid] || now-s.lastSeen[uid] <= deadline {
				continue
			}
			s.offline[uid] = true
			s.log(fmt.Sprintf("%7.1fs node %d OFFLINE (silent %v)", now.Seconds(), uid, now-s.lastSeen[uid]))
			s.hub.HandleNodeState(coreda.ToolID(uid), false)
		}
	})
}

// touch stamps node traffic for liveness and recovers offline nodes. Runs
// on the Run goroutine.
func (s *Server) touch(uid uint16, now time.Duration) {
	if s.cfg.Supervision.Interval <= 0 {
		return
	}
	s.lastSeen[uid] = now
	if s.offline[uid] {
		delete(s.offline, uid)
		s.log(fmt.Sprintf("%7.1fs node %d back online", now.Seconds(), uid))
		s.hub.HandleNodeState(coreda.ToolID(uid), true)
	}
}

func sortedUIDs(m map[uint16]time.Duration) []uint16 {
	out := make([]uint16, 0, len(m))
	for uid := range m {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddActivity registers another activity's system on this server (its
// tools route automatically). Call before Run starts.
func (s *Server) AddActivity(sysCfg coreda.SystemConfig) (*coreda.System, error) {
	sysCfg.LEDs = serverLEDs{s}
	if sysCfg.DefaultMode == 0 {
		sysCfg.DefaultMode = s.cfg.Mode
	}
	return s.hub.Add(sysCfg)
}

// Hub exposes the activity router (read-only use from callbacks or Do).
func (s *Server) Hub() *coreda.Hub { return s.hub }

// System exposes the underlying CoReDA system (training, persistence).
// Only touch it before Run starts, from within system callbacks, or via
// Do.
func (s *Server) System() *coreda.System { return s.sys }

// Do runs fn on the loop goroutine (where the System may be touched
// safely) and waits for it to finish. It must not be called before Run
// starts or after Stop.
func (s *Server) Do(fn func()) {
	done := make(chan struct{})
	select {
	case s.packets <- routedPacket{fn: func() { fn(); close(done) }}:
		<-done
	case <-s.done:
	}
}

// Run pumps the virtual clock from the wall clock and processes incoming
// packets until Stop is called. It must run in exactly one goroutine.
//
// Packets are handled in batches: when one arrives, the loop drains the
// whole backlog at a single virtual instant, queuing any acks and LED
// commands on their connections, and then flushes each touched
// connection exactly once — one write syscall per peer per batch rather
// than per frame.
func (s *Server) Run() {
	ticker := time.NewTicker(s.cfg.Tick)
	defer ticker.Stop()
	start := time.Now()
	simNow := func() time.Duration {
		return time.Duration(float64(time.Since(start)) * s.cfg.Speed)
	}
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.sched.RunUntil(simNow())
		case rp := <-s.packets:
			now := simNow()
			s.sched.RunUntil(now)
			s.dispatch(rp, now)
		drain:
			for {
				select {
				case rp := <-s.packets:
					s.dispatch(rp, now)
				default:
					break drain
				}
			}
		}
		// Timers run from either branch may also have queued frames (LED
		// blinks), so the flush sits outside the select.
		s.flushTouched()
	}
}

func (s *Server) dispatch(rp routedPacket, now time.Duration) {
	if rp.fn != nil {
		rp.fn()
		return
	}
	s.handlePacket(rp, now)
}

// send queues a frame on nc and marks the connection for the flush at
// the end of the current batch. Runs on the Run goroutine.
func (s *Server) send(nc *nodeConn, p wire.Packet) {
	if err := nc.queue(p); err != nil {
		s.log(fmt.Sprintf("queue %s to %s: %v", p.Type(), nc.c.RemoteAddr(), err))
		return
	}
	if !nc.pending {
		nc.pending = true
		s.touched = append(s.touched, nc)
	}
}

// flushTouched writes each touched connection's queued frames in one
// syscall. Runs on the Run goroutine.
func (s *Server) flushTouched() {
	for i, nc := range s.touched {
		nc.pending = false
		s.touched[i] = nil
		if err := nc.flush(); err != nil {
			s.log(fmt.Sprintf("flush to %s: %v", nc.c.RemoteAddr(), err))
		}
	}
	s.touched = s.touched[:0]
}

// Stop terminates Run and closes every connection.
func (s *Server) Stop() {
	s.stopped.Do(func() {
		close(s.done)
		s.mu.Lock()
		defer s.mu.Unlock()
		for nc := range s.all {
			nc.c.Close()
		}
	})
}

// Serve accepts connections until the listener fails or Stop is called.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		go s.HandleConn(conn)
	}
}

// HandleConn reads frames from one node connection until EOF, a fatal
// decode error, or — with ReadTimeout set — prolonged silence. The
// connection is always closed on return, so the reader goroutine cannot
// outlive its peer.
func (s *Server) HandleConn(conn net.Conn) {
	nc := &nodeConn{c: conn, timeout: s.cfg.WriteTimeout, w: wire.NewWriter(conn)}
	s.mu.Lock()
	// Stop closes done before it takes mu to close every registered
	// connection, so a connection registering after that sweep would
	// never be closed and would block in ReadFrame forever.
	select {
	case <-s.done:
		s.mu.Unlock()
		conn.Close()
		return
	default:
	}
	s.all[nc] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.all, nc)
		s.mu.Unlock()
		nc.release()
	}()
	r := wire.NewReader(conn)
	var rp routedPacket
	rp.conn = nc
	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if err := r.ReadFrame(&rp.frame); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log(fmt.Sprintf("conn %s: %v", conn.RemoteAddr(), err))
			}
			conn.Close()
			return
		}
		select {
		case s.packets <- rp: // the Frame travels by value: no per-packet alloc
		case <-s.done:
			conn.Close()
			return
		}
	}
}

// handlePacket runs on the Run goroutine.
func (s *Server) handlePacket(rp routedPacket, now time.Duration) {
	switch rp.frame.Kind {
	case wire.TypeUsageStart:
		pkt := &rp.frame.UsageStart
		s.register(pkt.UID, rp.conn)
		s.touch(pkt.UID, now)
		s.ack(rp.conn, pkt.UID, pkt.Seq)
		s.log(fmt.Sprintf("%7.1fs usage-start tool %d", now.Seconds(), pkt.UID))
		s.hub.HandleUsage(coreda.UsageEvent{
			Tool: coreda.ToolID(pkt.UID),
			Kind: sensornet.UsageStarted,
			At:   now,
			Hits: int(pkt.Hits),
		})
	case wire.TypeUsageEnd:
		pkt := &rp.frame.UsageEnd
		s.register(pkt.UID, rp.conn)
		s.touch(pkt.UID, now)
		s.ack(rp.conn, pkt.UID, pkt.Seq)
		s.hub.HandleUsage(coreda.UsageEvent{
			Tool:     coreda.ToolID(pkt.UID),
			Kind:     sensornet.UsageEnded,
			At:       now,
			Duration: time.Duration(pkt.DurationMs) * time.Millisecond,
		})
	case wire.TypeHeartbeat:
		pkt := &rp.frame.Heartbeat
		s.register(pkt.UID, rp.conn)
		s.touch(pkt.UID, now)
	case wire.TypeHello:
		// This server hosts a single household, so the handshake only
		// registers the node; the fleet server routes on it.
		pkt := &rp.frame.Hello
		s.register(pkt.UID, rp.conn)
		s.touch(pkt.UID, now)
		s.ack(rp.conn, pkt.UID, pkt.Seq)
		s.log(fmt.Sprintf("%7.1fs node %d hello (household %q ignored: single-household server)", now.Seconds(), pkt.UID, pkt.Household))
	case wire.TypeAck:
		// LED command acknowledged; TCP already guarantees delivery.
	}
}

func (s *Server) register(uid uint16, nc *nodeConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[uid] = nc
}

func (s *Server) ack(nc *nodeConn, uid, seq uint16) {
	s.ackPkt = wire.Ack{UID: uid, Seq: seq}
	s.send(nc, &s.ackPkt)
}

func (s *Server) log(msg string) {
	if s.cfg.OnLog != nil {
		s.cfg.OnLog(msg)
	}
}

// serverLEDs routes reminder LED commands to the node connections.
type serverLEDs struct{ s *Server }

// Blink implements reminding.LEDs.
func (l serverLEDs) Blink(tool coreda.ToolID, color wire.LEDColor, blinks int, period time.Duration) {
	s := l.s
	s.mu.Lock()
	nc := s.conns[uint16(tool)]
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	if nc == nil {
		s.log(fmt.Sprintf("LED %s x%d for tool %d: node not connected", color, blinks, tool))
		return
	}
	if blinks < 0 {
		blinks = 0
	}
	if blinks > 255 {
		blinks = 255
	}
	// Blink runs on the Run goroutine (the reminding subsystem drives it
	// from scheduler timers), so the command is queued like an ack and
	// flushed with the current batch.
	s.ledPkt = wire.LEDCommand{
		UID:      uint16(tool),
		Seq:      seq,
		Color:    color,
		Blinks:   uint8(blinks),
		PeriodMs: uint16(period / time.Millisecond),
	}
	s.send(nc, &s.ledPkt)
}

var _ reminding.LEDs = serverLEDs{}
