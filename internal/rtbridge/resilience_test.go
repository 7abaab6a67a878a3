package rtbridge

import (
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/chaosnet"
	"coreda/internal/sensornet"
	"coreda/internal/wire"
)

func TestReadTimeoutReapsSilentConns(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{ReadTimeout: 100 * time.Millisecond})
	baseline := runtime.NumGoroutine()

	// Nodes that send one frame and then vanish without a FIN — the
	// classic battery-death pattern that used to strand a reader goroutine
	// per connection forever.
	var conns []net.Conn
	for i := 0; i < 5; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
		frame, err := wire.AppendFrame(nil, &wire.Heartbeat{UID: 21, Seq: uint16(i + 1), Battery: 80})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "server to register the connections", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.all) == 5
	})

	// Silence past the read deadline: every connection must be closed and
	// its reader goroutine reaped.
	waitFor(t, "silent connections to be reaped", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.all) == 0
	})
	waitFor(t, "reader goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= baseline
	})

	// The server-side close is visible on our end too.
	buf := make([]byte, 1)
	conns[0].SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conns[0].Read(buf); err == nil {
		t.Error("reaped connection still open")
	}
}

func TestClientReadTimeoutUnblocksDeadServer(t *testing.T) {
	// A "server" that accepts and then hangs forever — what a SIGKILLed
	// process looks like from the client side (no FIN until the kernel
	// gives up, which can be minutes).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	n, err := DialNode(l.Addr().String(), 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetReadTimeout(100 * time.Millisecond)

	select {
	case <-n.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("reader loop still blocked on a dead server")
	}
}

func TestSupervisionDegradesOverTCP(t *testing.T) {
	var mu sync.Mutex
	var alerts []coreda.CaregiverAlert
	srv, addr := startServer(t, ServerConfig{
		System: coreda.SystemConfig{
			Activity: coreda.TeaMaking(),
			OnAlert: func(a coreda.CaregiverAlert) {
				mu.Lock()
				alerts = append(alerts, a)
				mu.Unlock()
			},
		},
		// 20 s virtual interval = 100 ms wall at the test speedup; the
		// default 3-beat deadline declares a node dead after ~300 ms wall.
		Supervision: sensornet.SupervisionConfig{Interval: 20 * time.Second},
	})

	n, err := DialNode(addr, uint16(adl.ToolTeaBox), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Heartbeat(time.Second); err != nil {
		t.Fatal(err)
	}

	// Then silence: the sweep must declare the node offline and degrade
	// the owning system.
	waitFor(t, "offline alert", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(alerts) == 1 && !alerts[0].Recovered
	})
	var degraded bool
	srv.Do(func() { degraded = srv.System().Degraded() })
	if !degraded {
		t.Error("system not degraded after offline declaration")
	}

	// Fresh traffic recovers it symmetrically.
	if err := n.Heartbeat(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery alert", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(alerts) == 2 && alerts[1].Recovered
	})
	srv.Do(func() { degraded = srv.System().Degraded() })
	if degraded {
		t.Error("system still degraded after recovery")
	}
}

func TestLearnSessionThroughFaultyConns(t *testing.T) {
	var mu sync.Mutex
	var completions int
	srv, addr := startServer(t, ServerConfig{
		Mode: coreda.ModeLearn,
		System: coreda.SystemConfig{
			Activity: coreda.TeaMaking(),
			OnComplete: func() {
				mu.Lock()
				completions++
				mu.Unlock()
			},
		},
	})

	// Every node speaks through a pathological transport: frames split
	// into 2-byte TCP segments with random garbage in between. The wire
	// reader must reassemble and resynchronize.
	rng := rand.New(rand.NewSource(7))
	nodes := map[adl.ToolID]*NodeClient{}
	for _, tool := range coreda.TeaMaking().StepIDs() {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		faulty := chaosnet.Wrap(c, chaosnet.ConnPlan{SplitMax: 2, Garbage: 0.5}, rng)
		n := NewNodeClient(faulty, uint16(tool), nil)
		defer n.Close()
		nodes[adl.ToolOf(tool)] = n
	}

	for _, step := range coreda.TeaMaking().StepIDs() {
		n := nodes[adl.ToolOf(step)]
		if err := n.UseStart(time.Second, 5); err != nil {
			t.Fatal(err)
		}
		if err := n.UseEnd(2*time.Second, time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, "session completion through faulty transport", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return completions == 1
	})
	var episodes int
	srv.Do(func() { episodes = srv.System().Planner().Episodes })
	if episodes != 1 {
		t.Errorf("episodes = %d, want 1", episodes)
	}
}
