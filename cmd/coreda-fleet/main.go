// Command coreda-fleet serves many households from one process: sensor
// nodes connect over TCP, open with a hello frame naming their household
// (cmd/coreda-node -household), and each household runs a full CoReDA
// stack — its own scheduler, hub and learned policies — on one of a
// fixed pool of shards (internal/fleet).
//
// Usage:
//
//	coreda-fleet [-addr :7100] [-shards N] [-dir fleet-policies]
//	             [-activity tea-making] [-mode learn|assist] [-speed 1]
//	             [-checkpoint 30s] [-evict 30m] [-default-household home]
//	             [-seed 1] [-keep-learning]
//	             [-read-timeout 2m] [-write-timeout 10s]
//	             [-peers host1:7200,host2:7200 -peer-addr host1:7200 -replicas 2]
//
// With -peers set the process joins a fleet cluster (internal/cluster):
// the comma-separated peer list (which must include this process's own
// -peer-addr) is rendezvous-hashed into household ranges, nodes that
// hello a household owned by another peer are redirected to it, and
// every checkpoint flush is replicated to -replicas peers so a killed
// process's households can be adopted by the survivors.
//
// Households are admitted lazily on their first event, recovering their
// learned policy from <dir>/<household>.ckpt when one exists (legacy
// .json checkpoints load transparently and are upgraded in place); idle
// households are checkpointed and evicted after -evict of virtual
// inactivity, and every dirty household is batch-checkpointed each
// -checkpoint of wall time. Nodes that never send a hello are served as
// -default-household (empty drops their traffic), so legacy nodes keep
// working. On SIGINT/SIGTERM every household is checkpointed before
// exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"coreda"
	"coreda/internal/cluster"
	"coreda/internal/fleet"
	"coreda/internal/notify"
	"coreda/internal/store"
)

// options collects the command-line configuration.
type options struct {
	addr             string
	shards           int
	dir              string
	activityName     string
	activityFile     string
	mode             string
	speed            float64
	checkpoint       time.Duration
	evict            time.Duration
	defaultHousehold string
	seed             int64
	keepLearning     bool
	readTimeout      time.Duration
	writeTimeout     time.Duration
	peers            string
	peerAddr         string
	replicas         int
}

func main() {
	cluster.MaybeWorker()
	var o options
	flag.StringVar(&o.addr, "addr", ":7100", "listen address")
	flag.IntVar(&o.shards, "shards", 0, "shard event loops households are hashed across (0 = GOMAXPROCS)")
	flag.StringVar(&o.dir, "dir", "fleet-policies", "checkpoint directory (one policy file per household)")
	flag.StringVar(&o.activityName, "activity", "tea-making", "activity every household is instrumented for")
	flag.StringVar(&o.activityFile, "activity-file", "", "JSON activity declaration overriding -activity")
	flag.StringVar(&o.mode, "mode", "learn", "session mode: learn or assist")
	flag.Float64Var(&o.speed, "speed", 1, "simulated seconds per wall-clock second")
	flag.DurationVar(&o.checkpoint, "checkpoint", 30*time.Second, "batch checkpoint interval, wall clock (negative disables)")
	flag.DurationVar(&o.evict, "evict", 30*time.Minute, "evict households idle this long, virtual time (0 disables)")
	flag.StringVar(&o.defaultHousehold, "default-household", "home", "household serving nodes that send no hello (empty drops them)")
	flag.Int64Var(&o.seed, "seed", 1, "base seed; each household derives its own planner stream")
	flag.BoolVar(&o.keepLearning, "keep-learning", false, "continue learning during assist sessions")
	flag.DurationVar(&o.readTimeout, "read-timeout", 0, "per-connection read deadline, wall clock (0 disables)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 0, "per-connection write deadline, wall clock (0 disables)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated cluster peer addresses including -peer-addr (empty = single process)")
	flag.StringVar(&o.peerAddr, "peer-addr", "", "this process's peer listen address (its identity in -peers)")
	flag.IntVar(&o.replicas, "replicas", 2, "checkpoint replica count K on the peer ring (with -peers)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "coreda-fleet:", err)
		os.Exit(1)
	}
}

// console serializes output lines: reminders and fleet logs arrive from
// shard and connection goroutines concurrently.
type console struct{ mu sync.Mutex }

func (c *console) printf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Printf(format, args...)
}

func run(o options) error {
	activity, err := resolveActivity(o.activityName, o.activityFile)
	if err != nil {
		return err
	}
	var mode coreda.Mode
	switch o.mode {
	case "learn":
		mode = coreda.ModeLearn
	case "assist":
		mode = coreda.ModeAssist
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}

	out := &console{}

	// The control-plane bus: shards publish eviction/checkpoint events,
	// the cluster node publishes degraded-mode transitions, and the
	// operator log below consumes the ones worth a line. Slow output
	// never backs up into a shard loop — the bus drops instead.
	bus := notify.NewBus()
	health := bus.Subscribe(256, notify.WritebackFailed, notify.NodeDegraded, notify.NodeRecovered, notify.PeerLost)
	go func() {
		for ev := range health.C() {
			switch ev.Kind {
			case notify.WritebackFailed:
				out.printf("health: writeback failed for %q (shard %d): %s\n", ev.Household, ev.Shard, ev.Err)
			case notify.NodeDegraded:
				out.printf("health: degraded — pushes owed to peer %s: %s\n", ev.Addr, ev.Err)
			case notify.NodeRecovered:
				out.printf("health: recovered — peer %s owes nothing\n", ev.Addr)
			case notify.PeerLost:
				out.printf("health: peer %s left the ring\n", ev.Addr)
			}
		}
	}()

	// Clustered: the peer node wraps the checkpoint backend (replication
	// to K peers at every flush) and owns household routing. The serving
	// listener must be bound first — its real address is what redirected
	// nodes are told to dial.
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	var node *cluster.Node
	var backend store.Backend
	if o.peers != "" {
		if o.peerAddr == "" {
			l.Close()
			return fmt.Errorf("-peers requires -peer-addr (this process's entry in the peer list)")
		}
		local, err := store.NewDirBackend(o.dir)
		if err != nil {
			l.Close()
			return err
		}
		node, err = cluster.NewNode(cluster.NodeConfig{
			PeerAddr: o.peerAddr,
			NodeAddr: l.Addr().String(),
			Peers:    strings.Split(o.peers, ","),
			Replicas: o.replicas,
			Local:    local,
			Seed:     o.seed,
			Bus:      bus,
		})
		if err != nil {
			l.Close()
			return err
		}
		backend = node.Backend()
	}

	f, err := fleet.New(fleet.Config{
		Shards:    o.shards,
		Dir:       o.dir,
		Backend:   backend,
		IdleEvict: o.evict,
		Bus:       bus,
		OnLog:     func(msg string) { out.printf("%s\n", msg) },
		NewSystem: func(household string) (coreda.SystemConfig, error) {
			return coreda.SystemConfig{
				Activity:     activity,
				UserName:     household,
				DefaultMode:  mode,
				KeepLearning: o.keepLearning,
				Seed:         fleet.SeedFor(o.seed, household),
				OnReminder: func(r coreda.Reminder) {
					out.printf("[%s] REMINDER [%s, %s]: %s (picture %s)\n", household, r.Trigger, r.Level, r.Text, r.Picture)
				},
				OnPraise: func(p coreda.Praise) {
					out.printf("[%s] PRAISE: %s\n", household, p.Text)
				},
				OnComplete: func() {
					out.printf("[%s] activity %q completed\n", household, activity.Name)
				},
			}, nil
		},
	})
	if err != nil {
		return err
	}
	cfg := fleet.ServeConfig{
		Speed:            o.speed,
		CheckpointEvery:  o.checkpoint,
		DefaultHousehold: o.defaultHousehold,
		ReadTimeout:      o.readTimeout,
		WriteTimeout:     o.writeTimeout,
		OnLog:            func(msg string) { out.printf("%s\n", msg) },
	}
	if node != nil {
		cfg.Route = node.Route
		cfg.AfterFlush = func() {
			if err := node.Sync(); err != nil {
				out.printf("cluster: replication sync: %v\n", err)
			}
		}
	}
	srv, err := fleet.NewServer(f, cfg)
	if err != nil {
		l.Close()
		return err
	}
	if node != nil {
		node.AttachFleet(f)
		if err := node.Start(); err != nil {
			l.Close()
			return err
		}
		out.printf("cluster: peer %s serving %d-way ring (replicas %d)\n",
			o.peerAddr, len(strings.Split(o.peers, ",")), o.replicas)
	}

	out.printf("coreda-fleet: %s on %s (%d shards, mode %s, speed %gx, dir %s)\n",
		activity.Name, l.Addr(), f.Shards(), mode, o.speed, o.dir)
	// The explicit line matters with -addr :0, where the OS picks the
	// port: scripts and tests scrape the actually-bound address here.
	out.printf("listening on %s\n", l.Addr())

	go srv.Run()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.Stop()
		f.Stop() // final checkpoint of every household
		if node != nil {
			// Push the final checkpoints to the replica peers before the
			// links close — a restart elsewhere must see them.
			if err := node.Sync(); err != nil {
				out.printf("cluster: final sync: %v\n", err)
			}
			node.Close()
		}
		st := f.Stats()
		out.printf("fleet stopped: %d events, %d admissions (%d recovered), %d evictions, %d checkpoints\n",
			st.Events, st.Admissions, st.Recovered, st.Evictions, st.Checkpoints)
		health.Close()
		l.Close()
	}()
	return srv.Serve(l)
}

func resolveActivity(name, file string) (*coreda.Activity, error) {
	if file != "" {
		return coreda.LoadActivityFile(file)
	}
	for _, a := range []*coreda.Activity{
		coreda.ToothBrushing(), coreda.TeaMaking(), coreda.HandWashing(), coreda.Medication(), coreda.Dressing(),
	} {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown activity %q", name)
}
