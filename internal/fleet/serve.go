package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"coreda"
	"coreda/internal/reminding"
	"coreda/internal/sensornet"
	"coreda/internal/wire"
)

// ServeConfig configures a fleet TCP front end.
type ServeConfig struct {
	// Speed is how many virtual seconds elapse per wall-clock second
	// (zero means 1). One virtual clock paces every tenant.
	Speed float64
	// Tick is the clock-pump granularity in wall time (zero means 50 ms).
	Tick time.Duration
	// CheckpointEvery batch-flushes every dirty tenant at this wall
	// interval (zero means 30 s; negative disables periodic flushing —
	// eviction and Stop still checkpoint).
	CheckpointEvery time.Duration
	// DefaultHousehold receives traffic from connections that never sent
	// a hello — version-0 nodes predating the household handshake. Empty
	// means such traffic is dropped (logged once per connection).
	DefaultHousehold string
	// Route, when non-nil, decides household placement in a cluster: it
	// returns the owning peer's node-facing address and whether that is
	// this process. A hello for a household owned elsewhere is answered
	// with a wire.Redirect naming addr instead of being registered. Nil
	// means every household is local (single-process fleet).
	Route func(household string) (addr string, local bool)
	// AfterFlush, when non-nil, runs after each periodic batch
	// checkpoint flush in Run — the cluster layer's hook to fan the
	// freshly written checkpoints out to replica peers.
	AfterFlush func()
	// ReadTimeout, when positive, bounds each frame read so a node that
	// vanishes without a FIN cannot leak its reader goroutine.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each frame write (acks, LED
	// commands).
	WriteTimeout time.Duration
	// OnLog receives human-readable event lines (may be nil).
	OnLog func(string)
}

// Server exposes a Fleet over TCP: nodes speak the wire protocol, open
// with a hello frame naming their household, and all subsequent traffic
// routes to that household's tenant on its owning shard. Nodes that
// never say hello fall back to DefaultHousehold, so pre-hello nodes keep
// working against a fleet of one.
//
// The serving layer is the fleet's wall-clock boundary: connection
// goroutines deliver into shard queues, and a pump goroutine advances
// the shared virtual clock — everything inside the shards stays
// deterministic virtual time.
type Server struct {
	f   *Fleet
	cfg ServeConfig

	start   time.Time
	done    chan struct{}
	stopped sync.Once

	mu    sync.Mutex
	conns map[string]map[uint16]*fleetConn // household → uid → latest conn
	all   map[*fleetConn]struct{}
	seq   uint16
}

// fleetConn is one node connection and the household it greeted as.
type fleetConn struct {
	c       net.Conn
	timeout time.Duration
	wm      sync.Mutex // serializes frame writes (acks vs LED commands)
	w       *wire.Writer
	// ackPkt is reusable ack scratch, owned by the connection's reader
	// goroutine (the only sender of acks).
	ackPkt wire.Ack

	mu        sync.Mutex
	household string
	warned    bool // "no hello, no default" logged once
}

func (nc *fleetConn) write(p wire.Packet) error {
	nc.wm.Lock()
	defer nc.wm.Unlock()
	if err := nc.w.QueuePacket(p); err != nil {
		return err
	}
	if nc.timeout > 0 {
		nc.c.SetWriteDeadline(time.Now().Add(nc.timeout)) //coreda:vet-ignore nondeterminism serving-layer socket deadline is wall-clock by nature
	}
	//coreda:vet-ignore lockheld wm exists to serialize whole frames onto the socket; holding it across the flush is the point
	return nc.w.Flush()
}

// release recycles the writer's pooled frame buffer once the connection
// is done.
func (nc *fleetConn) release() {
	nc.wm.Lock()
	nc.w.Release()
	nc.wm.Unlock()
}

// NewServer wraps a fleet that has not been started yet: it installs the
// LED write-back hook into the fleet's tenant configs, then starts the
// fleet. Call Run for the clock pump and Serve to accept nodes.
func NewServer(f *Fleet, cfg ServeConfig) (*Server, error) {
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}
	if cfg.DefaultHousehold != "" && !ValidHousehold(cfg.DefaultHousehold) {
		return nil, fmt.Errorf("fleet: invalid default household %q", cfg.DefaultHousehold)
	}
	srv := &Server{
		f:     f,
		cfg:   cfg,
		start: time.Now(), //coreda:vet-ignore nondeterminism the serving pump is the sanctioned wall-to-virtual boundary
		done:  make(chan struct{}),
		conns: make(map[string]map[uint16]*fleetConn),
		all:   make(map[*fleetConn]struct{}),
	}
	if f.state.Load() != fleetBuilt {
		return nil, fmt.Errorf("fleet: NewServer requires a fleet that has not been started")
	}
	if f.cfg.LEDs == nil {
		f.cfg.LEDs = func(household string) reminding.LEDs {
			return serveLEDs{srv: srv, household: household}
		}
	}
	f.Start()
	return srv, nil
}

// virtualNow is the shared virtual clock every tenant is paced by.
func (srv *Server) virtualNow() time.Duration {
	return time.Duration(float64(time.Since(srv.start)) * srv.cfg.Speed) //coreda:vet-ignore nondeterminism the serving pump is the sanctioned wall-to-virtual boundary
}

// Run pumps the tenants' virtual clocks from the wall clock and drives
// periodic batch checkpointing until Stop. Run it in one goroutine.
func (srv *Server) Run() {
	ticker := time.NewTicker(srv.cfg.Tick) //coreda:vet-ignore nondeterminism the serving pump is the sanctioned wall-to-virtual boundary
	defer ticker.Stop()
	var sinceFlush time.Duration
	for {
		select {
		case <-srv.done:
			return
		case <-ticker.C:
			srv.f.advanceAll(srv.virtualNow())
			if srv.cfg.CheckpointEvery > 0 {
				sinceFlush += srv.cfg.Tick
				if sinceFlush >= srv.cfg.CheckpointEvery {
					sinceFlush = 0
					srv.f.Flush()
					if srv.cfg.AfterFlush != nil {
						srv.cfg.AfterFlush()
					}
				}
			}
		}
	}
}

// Stop halts the pump and closes every node connection. The fleet itself
// is left to the caller (typically f.Stop right after, which takes the
// final checkpoint).
func (srv *Server) Stop() {
	srv.stopped.Do(func() {
		close(srv.done)
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for nc := range srv.all {
			nc.c.Close()
		}
	})
}

// Serve accepts node connections until the listener fails or Stop.
func (srv *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-srv.done:
				return nil
			default:
				return err
			}
		}
		go srv.HandleConn(conn)
	}
}

// HandleConn reads frames from one node connection until EOF, a fatal
// decode error, or — with ReadTimeout set — prolonged silence. Unlike the
// single-household rtbridge there is no central packet loop: the fleet's
// shard queues are the serialization point, so each connection goroutine
// delivers directly.
func (srv *Server) HandleConn(conn net.Conn) {
	nc := &fleetConn{c: conn, timeout: srv.cfg.WriteTimeout, w: wire.NewWriter(conn)}
	srv.mu.Lock()
	// Stop closes done before it takes mu to close every registered
	// connection, so a connection registering after that sweep would
	// never be closed and would block in ReadFrame forever.
	select {
	case <-srv.done:
		srv.mu.Unlock()
		conn.Close()
		return
	default:
	}
	srv.all[nc] = struct{}{}
	srv.mu.Unlock()
	defer func() {
		srv.mu.Lock()
		delete(srv.all, nc)
		srv.mu.Unlock()
		nc.release()
	}()
	r := wire.NewReader(conn)
	var f wire.Frame // reused across reads: no per-packet alloc
	for {
		if srv.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(srv.cfg.ReadTimeout)) //coreda:vet-ignore nondeterminism serving-layer socket deadline is wall-clock by nature
		}
		if err := r.ReadFrame(&f); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				srv.log("conn %s: %v", conn.RemoteAddr(), err)
			}
			conn.Close()
			return
		}
		srv.handlePacket(nc, &f)
	}
}

// household resolves the tenant a connection's traffic belongs to.
func (nc *fleetConn) forHousehold(fallback string) (string, bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.household != "" {
		return nc.household, true
	}
	if fallback != "" {
		return fallback, true
	}
	warned := nc.warned
	nc.warned = true
	return "", !warned // false once already warned; caller logs on true
}

func (srv *Server) handlePacket(nc *fleetConn, f *wire.Frame) {
	now := srv.virtualNow()
	switch f.Kind {
	case wire.TypeHello:
		pkt := &f.Hello
		if !ValidHousehold(pkt.Household) {
			srv.log("conn %s: hello with invalid household %q", nc.c.RemoteAddr(), pkt.Household)
			return
		}
		if srv.cfg.Route != nil {
			if addr, local := srv.cfg.Route(pkt.Household); !local {
				// Not ours: point the node at the owning peer. The
				// connection's household stays unset, so any traffic the
				// node sends before reconnecting is dropped, not
				// misdelivered into a tenant this process must not own.
				if err := nc.write(&wire.Redirect{Seq: pkt.Seq, Addr: addr}); err != nil {
					srv.log("redirect %s to %s: %v", pkt.Household, addr, err)
				}
				srv.log("%7.1fs node %d household %s redirected to %s", now.Seconds(), pkt.UID, pkt.Household, addr)
				return
			}
		}
		nc.mu.Lock()
		nc.household = pkt.Household
		nc.mu.Unlock()
		srv.register(pkt.Household, pkt.UID, nc)
		srv.ack(nc, pkt.UID, pkt.Seq)
		srv.log("%7.1fs node %d joined household %s (hello v%d)", now.Seconds(), pkt.UID, pkt.Household, pkt.HelloVersion)
	case wire.TypeUsageStart:
		pkt := &f.UsageStart
		hh, ok := srv.resolve(nc, pkt.UID)
		if !ok {
			return
		}
		srv.ack(nc, pkt.UID, pkt.Seq)
		srv.deliver(hh, Event{
			Household: hh,
			At:        now,
			Kind:      EventUsage,
			Usage: coreda.UsageEvent{
				Tool: coreda.ToolID(pkt.UID),
				Kind: sensornet.UsageStarted,
				At:   now,
				Hits: int(pkt.Hits),
			},
		})
	case wire.TypeUsageEnd:
		pkt := &f.UsageEnd
		hh, ok := srv.resolve(nc, pkt.UID)
		if !ok {
			return
		}
		srv.ack(nc, pkt.UID, pkt.Seq)
		srv.deliver(hh, Event{
			Household: hh,
			At:        now,
			Kind:      EventUsage,
			Usage: coreda.UsageEvent{
				Tool:     coreda.ToolID(pkt.UID),
				Kind:     sensornet.UsageEnded,
				At:       now,
				Duration: time.Duration(pkt.DurationMs) * time.Millisecond,
			},
		})
	case wire.TypeHeartbeat:
		// Liveness only; register so LED write-back finds the node even
		// before its first usage report.
		srv.resolve(nc, f.Heartbeat.UID)
	case wire.TypeAck:
		// LED command acknowledged; TCP already guarantees delivery.
	}
}

// resolve maps a connection's packet to its household and registers the
// node for LED write-back. It returns false (logging the first time) for
// traffic with neither a hello nor a default household.
func (srv *Server) resolve(nc *fleetConn, uid uint16) (string, bool) {
	hh, ok := nc.forHousehold(srv.cfg.DefaultHousehold)
	if hh == "" {
		if ok {
			srv.log("conn %s: traffic before hello and no default household — dropping", nc.c.RemoteAddr())
		}
		return "", false
	}
	srv.register(hh, uid, nc)
	return hh, true
}

func (srv *Server) deliver(hh string, ev Event) {
	if err := srv.f.Deliver(ev); err != nil {
		srv.log("household %s: %v", hh, err)
	}
}

func (srv *Server) register(household string, uid uint16, nc *fleetConn) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	m := srv.conns[household]
	if m == nil {
		m = make(map[uint16]*fleetConn)
		srv.conns[household] = m
	}
	m[uid] = nc
}

func (srv *Server) ack(nc *fleetConn, uid, seq uint16) {
	// ackPkt is owned by the reader goroutine calling this, and write
	// copies the encoded bytes out before returning, so reuse is safe.
	nc.ackPkt = wire.Ack{UID: uid, Seq: seq}
	if err := nc.write(&nc.ackPkt); err != nil {
		srv.log("ack to %d: %v", uid, err)
	}
}

func (srv *Server) log(format string, args ...any) {
	if srv.cfg.OnLog == nil {
		return
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.cfg.OnLog(fmt.Sprintf(format, args...))
}

// serveLEDs routes one household's reminder LED commands back to its
// node connections.
type serveLEDs struct {
	srv       *Server
	household string
}

// Blink implements reminding.LEDs.
func (l serveLEDs) Blink(tool coreda.ToolID, color wire.LEDColor, blinks int, period time.Duration) {
	srv := l.srv
	srv.mu.Lock()
	nc := srv.conns[l.household][uint16(tool)]
	srv.seq++
	seq := srv.seq
	srv.mu.Unlock()
	if nc == nil {
		srv.log("LED %s x%d for tool %d: no node connected in household %s", color, blinks, tool, l.household)
		return
	}
	if blinks < 0 {
		blinks = 0
	}
	if blinks > 255 {
		blinks = 255
	}
	cmd := &wire.LEDCommand{
		UID:      uint16(tool),
		Seq:      seq,
		Color:    color,
		Blinks:   uint8(blinks),
		PeriodMs: uint16(period / time.Millisecond),
	}
	if err := nc.write(cmd); err != nil {
		srv.log("LED to %d in %s: %v", tool, l.household, err)
	}
}

var _ reminding.LEDs = serveLEDs{}
