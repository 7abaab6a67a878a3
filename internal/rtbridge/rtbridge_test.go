package rtbridge

import (
	"net"
	"sync"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/sensing"
	"coreda/internal/wire"
)

// startServer launches a bridge server on a loopback listener.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if cfg.System.Activity == nil {
		cfg.System.Activity = coreda.TeaMaking()
	}
	if cfg.Speed == 0 {
		cfg.Speed = 200 // fast virtual time so tests finish quickly
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	srv, err := NewServer(cfg)
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
		l.Close()
	})
	return srv, l.Addr().String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLearnSessionOverTCP(t *testing.T) {
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

	nodes := map[adl.ToolID]*NodeClient{}
	for _, tool := range coreda.TeaMaking().StepIDs() {
		n, err := DialNode(addr, uint16(tool), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[adl.ToolOf(tool)] = n
	}

	// Perform the routine three times.
	for ep := 0; ep < 3; ep++ {
		mu.Lock()
		before := completions
		mu.Unlock()
		for _, step := range coreda.TeaMaking().StepIDs() {
			n := nodes[adl.ToolOf(step)]
			if err := n.UseStart(time.Second, 5); err != nil {
				t.Fatal(err)
			}
			if err := n.UseEnd(2*time.Second, time.Second); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // > merge gap at 200x speed
		}
		waitFor(t, "session completion", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return completions > before
		})
	}
	var episodes int
	srv.Do(func() { episodes = srv.System().Planner().Episodes })
	if episodes != 3 {
		t.Errorf("episodes = %d, want 3", episodes)
	}
}

func TestAssistReminderAndLEDOverTCP(t *testing.T) {
	var mu sync.Mutex
	var reminders []coreda.Reminder
	srv, addr := startServer(t, ServerConfig{
		Mode: coreda.ModeAssist,
		System: coreda.SystemConfig{
			Activity: coreda.TeaMaking(),
			Sensing:  sensing.Config{IdleFloor: 30 * time.Second}, // 150 ms wall at 200x
			OnReminder: func(r coreda.Reminder) {
				mu.Lock()
				reminders = append(reminders, r)
				mu.Unlock()
			},
		},
	})

	// Pre-train the policy so the assist session has expectations.
	routine := coreda.TeaMaking().CanonicalRoutine()
	episodes := make([][]coreda.StepID, 150)
	for i := range episodes {
		episodes[i] = routine
	}
	var trainErr error
	srv.Do(func() { trainErr = srv.System().TrainEpisodes(episodes) })
	if trainErr != nil {
		t.Fatal(trainErr)
	}

	var ledMu sync.Mutex
	leds := map[uint16][]LEDEvent{}
	nodes := map[adl.ToolID]*NodeClient{}
	for _, tool := range coreda.TeaMaking().StepIDs() {
		uid := uint16(tool)
		n, err := DialNode(addr, uid, func(e LEDEvent) {
			ledMu.Lock()
			leds[uid] = append(leds[uid], e)
			ledMu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[adl.ToolOf(tool)] = n
		// Register the node with the server so LED commands can route.
		if err := n.Heartbeat(time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// First step correct, then the wrong tool -> wrong-tool reminder.
	if err := nodes[adl.ToolTeaBox].UseStart(time.Second, 5); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := nodes[adl.ToolTeaCup].UseStart(2*time.Second, 5); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "wrong-tool reminder", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reminders) > 0
	})
	mu.Lock()
	r := reminders[0]
	mu.Unlock()
	if r.Trigger != coreda.TriggerWrongTool || r.Tool != adl.ToolPot {
		t.Errorf("reminder = %+v", r)
	}

	// The green LED command must reach the pot node, the red one the cup.
	waitFor(t, "LED commands", func() bool {
		ledMu.Lock()
		defer ledMu.Unlock()
		return len(leds[uint16(adl.ToolPot)]) > 0 && len(leds[uint16(adl.ToolTeaCup)]) > 0
	})
	ledMu.Lock()
	defer ledMu.Unlock()
	if leds[uint16(adl.ToolPot)][0].Color != wire.LEDGreen {
		t.Errorf("pot LED = %+v", leds[uint16(adl.ToolPot)][0])
	}
	if leds[uint16(adl.ToolTeaCup)][0].Color != wire.LEDRed {
		t.Errorf("cup LED = %+v", leds[uint16(adl.ToolTeaCup)][0])
	}
}

func TestIdleReminderOverTCP(t *testing.T) {
	var mu sync.Mutex
	var reminders []coreda.Reminder
	srv, addr := startServer(t, ServerConfig{
		Mode: coreda.ModeAssist,
		System: coreda.SystemConfig{
			Activity: coreda.TeaMaking(),
			Sensing:  sensing.Config{IdleFloor: 10 * time.Second}, // 50 ms wall
			OnReminder: func(r coreda.Reminder) {
				mu.Lock()
				reminders = append(reminders, r)
				mu.Unlock()
			},
		},
	})
	routine := coreda.TeaMaking().CanonicalRoutine()
	episodes := make([][]coreda.StepID, 150)
	for i := range episodes {
		episodes[i] = routine
	}
	var trainErr error
	srv.Do(func() { trainErr = srv.System().TrainEpisodes(episodes) })
	if trainErr != nil {
		t.Fatal(trainErr)
	}

	n, err := DialNode(addr, uint16(adl.ToolTeaBox), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.UseStart(time.Second, 4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle reminder", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reminders) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if reminders[0].Trigger != coreda.TriggerIdle || reminders[0].Tool != adl.ToolPot {
		t.Errorf("reminder = %+v", reminders[0])
	}
}

func TestServerStopClosesConnections(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{})
	n, err := DialNode(addr, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	select {
	case <-n.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("node connection not closed by server stop")
	}
}

// TestHandleConnAfterStopReturns pins the register-after-Stop race
// deterministically: a connection handed to HandleConn once Stop has
// swept the connection set must be closed and the handler must return,
// instead of registering where nothing will ever close it and blocking
// in ReadFrame forever.
func TestHandleConnAfterStopReturns(t *testing.T) {
	srv, err := NewServer(ServerConfig{System: coreda.SystemConfig{Activity: coreda.TeaMaking()}})
	if err != nil {
		t.Fatal(err)
	}
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

func TestMultiActivityServerRoutesByTool(t *testing.T) {
	var mu sync.Mutex
	completions := map[string]int{}
	onComplete := func(name string) func() {
		return func() {
			mu.Lock()
			completions[name]++
			mu.Unlock()
		}
	}
	srv, addr := startServer(t, ServerConfig{
		Mode: coreda.ModeLearn,
		System: coreda.SystemConfig{
			Activity:   coreda.Medication(),
			OnComplete: onComplete("medication"),
		},
	})
	if _, err := srv.AddActivity(coreda.SystemConfig{
		Activity:   coreda.HandWashing(),
		OnComplete: onComplete("hand-washing"),
	}); err != nil {
		t.Fatal(err)
	}

	perform := func(tools []adl.ToolID) {
		for _, tool := range tools {
			n, err := DialNode(addr, uint16(tool), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.UseStart(time.Second, 5); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			n.Close()
		}
	}
	// Interleave the two activities: each must complete independently.
	perform([]adl.ToolID{adl.ToolPillBox, adl.ToolFaucet, adl.ToolWaterGlass, adl.ToolSoap, adl.ToolHandTowel})
	waitFor(t, "both completions", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return completions["medication"] == 1 && completions["hand-washing"] == 1
	})
}
