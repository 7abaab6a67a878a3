package fleet

import (
	"net"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/wire"
)

// dialNode connects a fake node and returns the conn plus a reader for
// server-to-node frames.
func dialNode(t *testing.T, addr string) (net.Conn, *wire.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, wire.NewReader(c)
}

func sendPacket(t *testing.T, c net.Conn, p wire.Packet) {
	t.Helper()
	frame, err := wire.AppendFrame(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// awaitEvents polls the fleet until the usage-event counter reaches want.
func awaitEvents(t *testing.T, f *Fleet, want int) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Stats()
		if st.Events >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d events; stats %+v", want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startServer brings up a fleet server on a loopback listener.
func startServer(t *testing.T, fcfg Config, scfg ServeConfig) (*Fleet, *Server, string) {
	t.Helper()
	f, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, scfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Stop()
		f.Stop()
		l.Close()
	})
	return f, srv, l.Addr().String()
}

// TestHandleConnAfterStopReturns pins the register-after-Stop race
// deterministically: a connection handed to HandleConn once Stop has
// swept the connection set must be closed and the handler must return,
// instead of registering where nothing will ever close it and blocking
// in ReadFrame forever.
func TestHandleConnAfterStopReturns(t *testing.T) {
	f, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	srv.Stop()
	server, client := net.Pipe()
	defer client.Close()
	returned := make(chan struct{})
	go func() {
		srv.HandleConn(server)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("HandleConn after Stop did not return")
	}
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Error("connection handed in after Stop was left open")
	}
}

// TestServeRoutesByHello pins the versioned household handshake: two
// nodes greeting as different households must land in different tenants,
// and each usage report must be acked.
func TestServeRoutesByHello(t *testing.T) {
	f, _, addr := startServer(t, testConfig(t.TempDir()), ServeConfig{Speed: 100})

	ca, ra := dialNode(t, addr)
	cb, rb := dialNode(t, addr)
	sendPacket(t, ca, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 1, HelloVersion: wire.HelloVersion, Household: "yamada"})
	sendPacket(t, cb, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 1, HelloVersion: wire.HelloVersion, Household: "suzuki"})
	for _, r := range []*wire.Reader{ra, rb} {
		pkt, err := r.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 1 {
			t.Fatalf("hello answered with %v", pkt)
		}
	}

	sendPacket(t, ca, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 2, Hits: 5})
	sendPacket(t, cb, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 2, Hits: 5})
	awaitEvents(t, f, 2)

	for _, want := range []string{"yamada", "suzuki"} {
		var accepted int
		if err := f.Do(want, func(tn *Tenant) error {
			accepted = tn.System.Stats().AcceptedSteps
			return nil
		}); err != nil {
			t.Fatalf("household %s: %v", want, err)
		}
		if accepted != 1 {
			t.Errorf("household %s accepted %d steps, want 1", want, accepted)
		}
	}
}

// TestServeDefaultHousehold pins backward compatibility: a legacy node
// that never says hello is served as the configured default household.
func TestServeDefaultHousehold(t *testing.T) {
	f, _, addr := startServer(t, testConfig(t.TempDir()),
		ServeConfig{Speed: 100, DefaultHousehold: "home"})

	c, r := dialNode(t, addr)
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 9, Hits: 3})
	if pkt, err := r.ReadPacket(); err != nil {
		t.Fatal(err)
	} else if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 9 {
		t.Fatalf("usage answered with %v", pkt)
	}
	awaitEvents(t, f, 1)
	if err := f.Do("home", func(tn *Tenant) error { return nil }); err != nil {
		t.Fatalf("default household not admitted: %v", err)
	}
}

// TestServeDropsPreHelloTrafficWithoutDefault pins the strict mode: no
// hello, no default household, no traffic.
func TestServeDropsPreHelloTrafficWithoutDefault(t *testing.T) {
	f, _, addr := startServer(t, testConfig(t.TempDir()), ServeConfig{Speed: 100})

	c, _ := dialNode(t, addr)
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 1, Hits: 3})
	sendPacket(t, c, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 2, HelloVersion: wire.HelloVersion, Household: "late"})
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 3, Hits: 3})
	st := awaitEvents(t, f, 1)
	if st.Events != 1 {
		t.Errorf("events = %d, want only the post-hello one", st.Events)
	}
	var accepted int
	if err := f.Do("late", func(tn *Tenant) error {
		accepted = tn.System.Stats().AcceptedSteps
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Errorf("post-hello traffic not routed: accepted = %d", accepted)
	}
}

// TestServeLEDWriteBack pins the reminder loop at fleet scale: a
// household in assist mode with an empty policy reminds on its first
// idle timeout, and the LED command must come back on that household's
// node connection.
func TestServeLEDWriteBack(t *testing.T) {
	fcfg := testConfig(t.TempDir())
	fcfg.NewSystem = func(household string) (coreda.SystemConfig, error) {
		return coreda.SystemConfig{
			Activity:    adl.TeaMaking(),
			UserName:    household,
			Seed:        SeedFor(7, household),
			DefaultMode: coreda.ModeAssist,
		}, nil
	}
	f, _, addr := startServer(t, fcfg, ServeConfig{Speed: 200})

	// Train the tenant so the assist session has firm expectations.
	canonical := adl.TeaMaking().CanonicalRoutine()
	if err := f.Do("mori", func(tn *Tenant) error {
		episodes := make([][]coreda.StepID, 20)
		for i := range episodes {
			episodes[i] = canonical
		}
		return tn.System.TrainEpisodes(episodes)
	}); err != nil {
		t.Fatal(err)
	}

	// Both the first tool's node and the expected-next tool's node greet
	// on one connection; the reminder's LED must come back on it.
	c, r := dialNode(t, addr)
	sendPacket(t, c, &wire.Hello{UID: uint16(adl.ToolTeaBox), Seq: 1, HelloVersion: wire.HelloVersion, Household: "mori"})
	sendPacket(t, c, &wire.Hello{UID: uint16(adl.ToolPot), Seq: 2, HelloVersion: wire.HelloVersion, Household: "mori"})
	sendPacket(t, c, &wire.UsageStart{UID: uint16(adl.ToolTeaBox), Seq: 3, Hits: 5})
	awaitEvents(t, f, 1)

	// At 200x speed the 30 s idle timeout fires ~150 ms after the step;
	// the resulting reminder blinks a LED on the node's connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.SetReadDeadline(deadline)
		pkt, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("no LED command before deadline: %v", err)
		}
		if led, ok := pkt.(*wire.LEDCommand); ok {
			if led.Blinks == 0 {
				t.Errorf("LED command with zero blinks: %+v", led)
			}
			return
		}
	}
}

// TestServeRedirectsForeignHousehold pins cluster routing: a hello for a
// household the Route hook places elsewhere is answered with a Redirect
// naming the owner, and the connection stays unbound — traffic on it is
// not misdelivered into a local tenant.
func TestServeRedirectsForeignHousehold(t *testing.T) {
	route := func(household string) (string, bool) {
		if household == "foreign" {
			return "10.0.0.9:7001", false
		}
		return "", true
	}
	f, _, addr := startServer(t, testConfig(t.TempDir()), ServeConfig{Speed: 100, Route: route})

	c, r := dialNode(t, addr)
	sendPacket(t, c, &wire.Hello{UID: 3, Seq: 9, HelloVersion: wire.HelloVersion, Household: "foreign"})
	pkt, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	rd, ok := pkt.(*wire.Redirect)
	if !ok || rd.Addr != "10.0.0.9:7001" || rd.Seq != 9 {
		t.Fatalf("hello answered with %+v, want redirect to 10.0.0.9:7001", pkt)
	}
	// Usage after a redirected hello must be dropped, not admitted.
	sendPacket(t, c, &wire.UsageStart{UID: 3, Seq: 10, Hits: 5})

	// A local household on the same server still routes normally.
	c2, r2 := dialNode(t, addr)
	sendPacket(t, c2, &wire.Hello{UID: 4, Seq: 1, HelloVersion: wire.HelloVersion, Household: "local"})
	if pkt, err := r2.ReadPacket(); err != nil {
		t.Fatal(err)
	} else if ack, ok := pkt.(*wire.Ack); !ok || ack.Seq != 1 {
		t.Fatalf("local hello answered with %+v", pkt)
	}
	sendPacket(t, c2, &wire.UsageStart{UID: 4, Seq: 2, Hits: 5})
	st := awaitEvents(t, f, 1)
	if st.Events != 1 || st.Admissions != 1 {
		t.Errorf("stats = %+v, want exactly the local event admitted", st)
	}
}
