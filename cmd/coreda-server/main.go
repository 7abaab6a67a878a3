// Command coreda-server runs the CoReDA gateway + system over real TCP:
// sensor nodes (cmd/coreda-node) connect and report tool usage; the
// server learns or assists, prints reminders to stdout (the "display" of
// the paper's reminding subsystem) and sends LED commands back to the
// nodes.
//
// Usage:
//
//	coreda-server [-addr :7007] [-activity tea-making] [-mode learn|assist]
//	              [-user "Mr. Tanaka"] [-speed 1] [-policy policy.ckpt]
//	              [-save policy.ckpt]
//	              [-checkpoint 30s] [-supervise 30s]
//	              [-read-timeout 2m] [-write-timeout 10s]
//
// With -policy, a previously trained policy is loaded before serving;
// with -save, the (possibly updated) policy is written on SIGINT/SIGTERM,
// and — if the file already exists at startup — recovered from, so a
// crashed server resumes from its last checkpoint instead of forgetting
// the routine. -checkpoint additionally saves every interval (wall
// clock), making even a SIGKILL lose at most one interval of learning.
// -supervise arms node-liveness supervision (virtual time): silent nodes
// degrade the system and raise caregiver alerts. -read-timeout reaps
// connections of vanished nodes; set it above their heartbeat interval.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coreda"
	"coreda/internal/rtbridge"
	"coreda/internal/sensornet"
)

// options collects the command-line configuration.
type options struct {
	addr         string
	activityName string
	activityFile string
	mode         string
	user         string
	speed        float64
	policy       string
	save         string
	checkpoint   time.Duration
	supervise    time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration
	keepLearning bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7007", "listen address")
	flag.StringVar(&o.activityName, "activity", "tea-making", "activity to support")
	flag.StringVar(&o.activityFile, "activity-file", "", "JSON activity declaration overriding -activity")
	flag.StringVar(&o.mode, "mode", "learn", "session mode: learn or assist")
	flag.StringVar(&o.user, "user", "Mr. Tanaka", "user name for personalized reminders")
	flag.Float64Var(&o.speed, "speed", 1, "simulated seconds per wall-clock second")
	flag.StringVar(&o.policy, "policy", "", "policy file to load before serving")
	flag.StringVar(&o.save, "save", "", "policy file to write on shutdown (and recover from on start)")
	flag.DurationVar(&o.checkpoint, "checkpoint", 0, "periodic policy checkpoint interval, wall clock (0 disables)")
	flag.DurationVar(&o.supervise, "supervise", 0, "node-liveness supervision interval, virtual time (0 disables)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 0, "per-connection read deadline, wall clock (0 disables)")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 0, "per-connection write deadline, wall clock (0 disables)")
	flag.BoolVar(&o.keepLearning, "keep-learning", false, "continue learning during assist sessions")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "coreda-server:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	addr, activityName, activityFile := o.addr, o.activityName, o.activityFile
	modeName, user, speed := o.mode, o.user, o.speed
	policy, save, keepLearning := o.policy, o.save, o.keepLearning
	activity, err := resolveActivity(activityName, activityFile)
	if err != nil {
		return err
	}
	var mode coreda.Mode
	switch modeName {
	case "learn":
		mode = coreda.ModeLearn
	case "assist":
		mode = coreda.ModeAssist
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}

	srv, err := rtbridge.NewServer(rtbridge.ServerConfig{
		Mode:         mode,
		Speed:        speed,
		ReadTimeout:  o.readTimeout,
		WriteTimeout: o.writeTimeout,
		Supervision:  sensornet.SupervisionConfig{Interval: o.supervise},
		OnLog:        func(msg string) { fmt.Println(msg) },
		System: coreda.SystemConfig{
			Activity:     activity,
			UserName:     user,
			KeepLearning: keepLearning,
			OnReminder: func(r coreda.Reminder) {
				fmt.Printf("REMINDER [%s, %s]: %s (picture %s)\n", r.Trigger, r.Level, r.Text, r.Picture)
			},
			OnPraise: func(p coreda.Praise) {
				fmt.Printf("PRAISE: %s\n", p.Text)
			},
			OnComplete: func() {
				fmt.Printf("activity %q completed\n", activity.Name)
			},
		},
	})
	if err != nil {
		return err
	}
	switch {
	case policy != "":
		if err := srv.System().LoadPolicy(policy); err != nil {
			return err
		}
		fmt.Printf("loaded policy from %s\n", policy)
	case save != "" && fileExists(save):
		// Crash recovery: a previous run left a checkpoint behind — resume
		// from it. LoadPolicy falls back to the rotated backup if the
		// primary was torn mid-write.
		if err := srv.System().LoadPolicy(save); err != nil {
			return fmt.Errorf("recover checkpoint %s: %w", save, err)
		}
		fmt.Printf("recovered policy from checkpoint %s (%d episodes)\n", save, srv.System().Planner().Episodes)
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("coreda-server: %s on %s (mode %s, speed %gx)\n", activity.Name, l.Addr(), mode, speed)
	// The explicit line matters with -addr :0, where the OS picks the
	// port: scripts and tests scrape the actually-bound address here.
	fmt.Printf("listening on %s\n", l.Addr())

	go srv.Run()
	quit := make(chan struct{})
	if save != "" && o.checkpoint > 0 {
		go func() {
			tick := time.NewTicker(o.checkpoint)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					srv.Do(func() {
						if err := srv.System().SavePolicy(save); err != nil {
							fmt.Fprintln(os.Stderr, "checkpoint:", err)
						}
					})
				case <-quit:
					return
				}
			}
		}()
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(quit)
		if save != "" {
			srv.Do(func() {
				if err := srv.System().SavePolicy(save); err != nil {
					fmt.Fprintln(os.Stderr, "save policy:", err)
				} else {
					fmt.Printf("policy saved to %s\n", save)
				}
			})
		}
		srv.Stop()
		l.Close()
	}()
	return srv.Serve(l)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func resolveActivity(name, file string) (*coreda.Activity, error) {
	if file != "" {
		return coreda.LoadActivityFile(file)
	}
	return findActivity(name)
}

func findActivity(name string) (*coreda.Activity, error) {
	for _, a := range []*coreda.Activity{
		coreda.ToothBrushing(), coreda.TeaMaking(), coreda.HandWashing(), coreda.Medication(), coreda.Dressing(),
	} {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown activity %q", name)
}
