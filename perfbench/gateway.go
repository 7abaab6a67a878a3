package main

import (
	"fmt"
	"math/bits"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"coreda/internal/wire"
)

// ledger is the client-side record of one population's replies, shared
// by its gateways. Every household is served by exactly one gateway, so
// each per-household element has a single writer: that gateway's reader
// goroutine.
type ledger struct {
	pop    *population
	match  *ledMatcher
	greens []atomic.Int32 // per household
	reds   []atomic.Int32
	// redAt holds, per household and in arrival order, when each red LED
	// was received (ns since traffic start). The tenant handles a
	// household's frames in order and writes its LEDs in order, so the
	// k-th red belongs to the household's k-th wrong-tool reminder.
	redAt [][]int64
}

func newLedger(pop *population) (*ledger, error) {
	m, err := newLEDMatcher(pop.toolUIDs())
	if err != nil {
		return nil, err
	}
	n := len(pop.names)
	l := &ledger{
		pop:    pop,
		match:  m,
		greens: make([]atomic.Int32, n),
		reds:   make([]atomic.Int32, n),
		redAt:  make([][]int64, n),
	}
	for h := range l.redAt {
		l.redAt[h] = make([]int64, 0, 64)
	}
	return l, nil
}

// gateway is one site-gateway connection: a writer goroutine that sends
// its schedule open-loop, and a reader goroutine that matches acks and
// LED commands. Latencies are taken from each frame's scheduled send
// time, so a stalled server (or a late generator) is charged in full.
type gateway struct {
	conn  net.Conn
	led   *ledger
	sched []entry
	trace bool

	start time.Time    // traffic start; schedule times are offsets from it
	sent  atomic.Int64 // schedule entries written to the socket

	// Writer-owned state. The packet structs are reused for every frame,
	// so the timed send loop allocates nothing.
	wbuf  []byte
	hello wire.Hello
	us    wire.UsageStart
	ue    wire.UsageEnd
	hb    wire.Heartbeat
	lag   []int64 // per usage frame: actual minus scheduled send, ns
	encNs []int64 // traced: AppendFrame time per frame

	// Reader-owned state until done is closed.
	ackIdx    int
	ackLat    []int64 // usage frames: scheduled send -> ack
	decNs     []int64 // traced: DecodeInto time per frame
	reads     int64
	frames    int64
	badAcks   int // acks not matching the next unacked frame
	badLEDs   int // LED commands for unknown UIDs
	badFrames int // bytes that did not decode
	readErr   error
	syncAcks  chan struct{}
	done      chan struct{}

	// syncKey is uid<<16|seq of the outstanding sync hello, set by the
	// caller of sync before the frame is written.
	syncKey atomic.Uint32
}

func newGateway(conn net.Conn, led *ledger, sched []entry, trace bool) *gateway {
	usage := 0
	for i := range sched {
		if sched[i].usage() {
			usage++
		}
	}
	g := &gateway{
		conn:     conn,
		led:      led,
		sched:    sched,
		trace:    trace,
		wbuf:     make([]byte, 0, 64*wire.MaxFrame),
		lag:      make([]int64, 0, usage),
		ackLat:   make([]int64, 0, usage),
		syncAcks: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if trace {
		g.encNs = make([]int64, 0, len(sched)+16)
		g.decNs = make([]int64, 0, len(sched)+16)
	}
	g.hello.HelloVersion = wire.HelloVersion
	g.us.Hits = 5
	return g
}

// register greets every household this gateway serves and announces
// each of its tool nodes with a heartbeat, so LED write-back can find
// them, then waits until every hello is acked (the server handles a
// connection's frames in order, so the last ack means all are in).
func (g *gateway) register(households []int) error {
	buf := g.wbuf[:0]
	var seq uint16
	var err error
	for _, h := range households {
		g.hello.UID, g.hello.Seq, g.hello.Household = g.led.pop.uid(h, 0), seq, g.led.pop.names[h]
		seq++
		if buf, err = wire.AppendFrame(buf, &g.hello); err != nil {
			return err
		}
		for k := 0; k < toolsPerHousehold; k++ {
			g.hb.UID, g.hb.Seq, g.hb.Battery = g.led.pop.uid(h, k), seq, 100
			seq++
			if buf, err = wire.AppendFrame(buf, &g.hb); err != nil {
				return err
			}
		}
	}
	if _, err := g.conn.Write(buf); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	r := wire.NewReader(g.conn)
	var f wire.Frame
	for acks := 0; acks < len(households); {
		if err := r.ReadFrame(&f); err != nil {
			return fmt.Errorf("register: %w", err)
		}
		if f.Kind == wire.TypeAck {
			acks++
		}
	}
	return nil
}

// run starts the reader and writer goroutines; the writer begins at
// start. Wait for the writer with the returned channel.
func (g *gateway) run(start time.Time) <-chan struct{} {
	g.start = start
	go g.read()
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		g.write()
	}()
	return wdone
}

// write sends the schedule open-loop: it sleeps until the next frame is
// due, then sends every frame already due in one socket write. It runs
// on its own OS thread and sleeps in nanosleep(2): the Go runtime's
// timers wake an idle process with millisecond granularity, which would
// make the generator itself the largest part of a sub-millisecond ack.
//
// Every writer thread is pinned to the first CPU the process may use:
// left to the kernel, where the generator lands relative to the server's
// threads changes from run to run, and with it the median latency by a
// third. The thread stays locked, so it exits with the writer instead of
// returning pinned to the runtime's pool.
func (g *gateway) write() {
	runtime.LockOSThread()
	pinToFirstCPU()
	for i := 0; i < len(g.sched); {
		due := g.sched[i].at
		if d := due - int64(time.Since(g.start)); d > 0 {
			ts := syscall.NsecToTimespec(d)
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		now := int64(time.Since(g.start))
		buf := g.wbuf[:0]
		j := i
		for ; j < len(g.sched) && g.sched[j].at <= now && len(buf) < cap(buf)-wire.MaxFrame; j++ {
			e := &g.sched[j]
			if e.usage() {
				g.lag = append(g.lag, now-e.at)
			}
			var t0 time.Time
			if g.trace {
				t0 = time.Now()
			}
			buf = g.appendEntry(buf, e)
			if g.trace {
				g.encNs = append(g.encNs, int64(time.Since(t0)))
			}
		}
		// Publish the count before writing: a fast reply may come back
		// before Write returns, and the reader checks acks against it.
		g.sent.Store(int64(j))
		if _, err := g.conn.Write(buf); err != nil {
			return
		}
		i = j
	}
}

func (g *gateway) appendEntry(buf []byte, e *entry) []byte {
	var p wire.Packet
	switch e.kind {
	case kindHello:
		g.hello.UID, g.hello.Seq, g.hello.Household = e.uid, e.seq, g.led.pop.names[e.hh]
		p = &g.hello
	case kindStart:
		g.us.UID, g.us.Seq = e.uid, e.seq
		p = &g.us
	case kindEnd:
		g.ue.UID, g.ue.Seq, g.ue.DurationMs = e.uid, e.seq, uint32(e.dur)
		p = &g.ue
	default:
		g.hb.UID, g.hb.Seq, g.hb.Battery = e.uid, e.seq, 100
		p = &g.hb
	}
	out, err := wire.AppendFrame(buf, p)
	if err != nil {
		// Every schedule frame is well under MaxPayload; an encode
		// failure is a bug in the generator.
		panic(err)
	}
	return out
}

// read consumes reply frames until the connection closes. It splits the
// byte stream into frames itself (instead of wire.Reader's per-frame
// reads) so it can count frames per socket read and time the codec
// alone.
func (g *gateway) read() {
	defer close(g.done)
	buf := make([]byte, 64<<10)
	filled := 0
	var f wire.Frame
	for {
		n, err := g.conn.Read(buf[filled:])
		if n > 0 {
			g.reads++
			recv := int64(time.Since(g.start))
			filled += n
			off := 0
			for filled-off >= 6 {
				if buf[off] != wire.Magic {
					g.badFrames++
					off++
					continue
				}
				size := 6 + int(buf[off+3])
				if filled-off < size {
					break
				}
				var t0 time.Time
				if g.trace {
					t0 = time.Now()
				}
				derr := wire.DecodeInto(&f, buf[off:off+size])
				if g.trace {
					g.decNs = append(g.decNs, int64(time.Since(t0)))
				}
				off += size
				if derr != nil {
					g.badFrames++
					continue
				}
				g.frames++
				g.handle(&f, recv)
			}
			filled = copy(buf, buf[off:filled])
		}
		if err != nil {
			g.readErr = err
			return
		}
	}
}

func (g *gateway) handle(f *wire.Frame, recv int64) {
	switch f.Kind {
	case wire.TypeAck:
		g.onAck(f.Ack.UID, f.Ack.Seq, recv)
	case wire.TypeLEDCommand:
		g.onLED(&f.LEDCommand, recv)
	default:
		g.badFrames++
	}
}

// onAck matches an ack against the oldest sent, unacked frame: the
// server acks a connection's frames in order, so any other ack is a
// duplicate, a loss or a misroute.
func (g *gateway) onAck(uid, seq uint16, recv int64) {
	sent := int(g.sent.Load())
	for g.ackIdx < sent && !g.sched[g.ackIdx].acked() {
		g.ackIdx++
	}
	if g.ackIdx >= sent {
		if g.syncKey.Load() == uint32(uid)<<16|uint32(seq) {
			g.syncAcks <- struct{}{}
			return
		}
		g.badAcks++
		return
	}
	e := &g.sched[g.ackIdx]
	if e.uid != uid || e.seq != seq {
		g.badAcks++
		return
	}
	g.ackIdx++
	if e.usage() {
		g.ackLat = append(g.ackLat, recv-e.at)
	}
}

// onLED counts a reminder LED against its household and records when a
// red one arrived.
func (g *gateway) onLED(c *wire.LEDCommand, recv int64) {
	h := g.led.match.household(c.UID)
	if h < 0 {
		g.badLEDs++
		return
	}
	if c.Color != wire.LEDRed {
		g.led.greens[h].Add(1)
		return
	}
	g.led.reds[h].Add(1)
	g.led.redAt[h] = append(g.led.redAt[h], recv)
}

// sync sends one more hello after the schedule and waits for its ack.
// The server handles a connection's frames in order and writes LED
// commands before any later ack, so once it returns every reply to
// frames before it — and every LED written before the hello was read —
// has been processed by the reader.
func (g *gateway) sync(h int, seq uint16, timeout time.Duration) error {
	uid := g.led.pop.uid(h, 0)
	g.syncKey.Store(uint32(uid)<<16 | uint32(seq))
	g.hello.UID, g.hello.Seq, g.hello.Household = uid, seq, g.led.pop.names[h]
	buf, err := wire.AppendFrame(g.wbuf[:0], &g.hello)
	if err != nil {
		return err
	}
	if _, err := g.conn.Write(buf); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	select {
	case <-g.syncAcks:
		return nil
	case <-g.done:
		return fmt.Errorf("sync: connection closed: %v", g.readErr)
	case <-time.After(timeout):
		return fmt.Errorf("sync: no ack within %v", timeout)
	}
}

// pinToFirstCPU restricts the calling OS thread to the lowest-numbered
// CPU in its affinity mask. Failure only loses the pinning.
func pinToFirstCPU() {
	var mask [16]uint64 // 1024 CPUs
	size := uintptr(len(mask) * 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return
	}
	for i, word := range mask {
		if word == 0 {
			continue
		}
		cpu := i*64 + bits.TrailingZeros64(word)
		mask = [16]uint64{}
		mask[cpu/64] = 1 << (cpu % 64)
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0])))
		return
	}
}
