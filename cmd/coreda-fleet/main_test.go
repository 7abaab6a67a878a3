package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"coreda"
	"coreda/internal/adl"
	"coreda/internal/cluster"
	"coreda/internal/rtbridge"
	"coreda/internal/store"
)

// procOutput collects a child process's combined output; safe for
// concurrent writes from the process and polling reads from the test.
type procOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (p *procOutput) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.Write(b)
}

func (p *procOutput) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

func awaitOutput(t *testing.T, out *procOutput, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q in output:\n%s", substr, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitAddr scrapes the bound address from the explicit "listening on"
// line — the contract that makes -addr 127.0.0.1:0 usable in scripts.
func awaitAddr(t *testing.T, out *procOutput) string {
	t.Helper()
	awaitOutput(t, out, "listening on 127.0.0.1:")
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("no listening line in output:\n%s", out.String())
	return ""
}

func buildFleet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "coreda-fleet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func startFleetProc(t *testing.T, bin string, args ...string) (*exec.Cmd, *procOutput) {
	t.Helper()
	out := &procOutput{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, out
}

// driveSession plays one complete tea-making session for a household:
// one node client per tool, all greeting with the same household.
func driveSession(t *testing.T, addr, household string) {
	t.Helper()
	steps := coreda.TeaMaking().StepIDs()
	nodes := map[adl.ToolID]*rtbridge.NodeClient{}
	for _, step := range steps {
		n, err := rtbridge.DialNode(addr, uint16(adl.ToolOf(step)), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.Hello(household); err != nil {
			t.Fatal(err)
		}
		nodes[adl.ToolOf(step)] = n
	}
	for _, step := range steps {
		n := nodes[adl.ToolOf(step)]
		if err := n.UseStart(time.Second, 5); err != nil {
			t.Fatal(err)
		}
		if err := n.UseEnd(2*time.Second, time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetServesAndCheckpointsHouseholds is the end-to-end acceptance
// test: two households complete a session each over TCP, and a SIGTERM
// leaves one recovered policy file per household behind — which a second
// run then resumes from.
func TestFleetServesAndCheckpointsHouseholds(t *testing.T) {
	bin := buildFleet(t)
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-speed", "200", "-shards", "4",
		"-dir", dir, "-checkpoint", "-1s",
	}

	cmd, out := startFleetProc(t, bin, args...)
	addr := awaitAddr(t, out)

	driveSession(t, addr, "tanaka-42")
	driveSession(t, addr, "suzuki-7")
	awaitOutput(t, out, `activity "tea-making" completed`)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fleet exited uncleanly: %v\n%s", err, out.String())
	}
	awaitOutput(t, out, "fleet stopped")

	for _, hh := range []string{"tanaka-42", "suzuki-7"} {
		f, _, _, err := store.LoadMultiPolicy(filepath.Join(dir, hh+".ckpt"))
		if err != nil {
			t.Fatalf("household %s checkpoint: %v", hh, err)
		}
		if f.User != hh || f.Activity != "tea-making" {
			t.Errorf("checkpoint metadata = %+v", f)
		}
		if f.Policies[0].Episodes < 1 {
			t.Errorf("household %s checkpointed %d episodes, want >= 1", hh, f.Policies[0].Episodes)
		}
	}

	// Restart: the same household must be admitted from its checkpoint.
	cmd2, out2 := startFleetProc(t, bin, args...)
	addr2 := awaitAddr(t, out2)
	driveSession(t, addr2, "tanaka-42")
	awaitOutput(t, out2, "admitted tanaka-42 from checkpoint")
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("restarted fleet exited uncleanly: %v\n%s", err, out2.String())
	}
	f, _, _, err := store.LoadMultiPolicy(filepath.Join(dir, "tanaka-42.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Policies[0].Episodes < 2 {
		t.Errorf("resumed household has %d episodes, want >= 2", f.Policies[0].Episodes)
	}
}

// TestFleetMigratesLegacyJSONCheckpoint pins the upgrade story end to
// end: a checkpoint directory left behind by a pre-binary fleet (bare
// <household>.json files) is recovered from on the first event, and the
// next checkpoint transparently rewrites it in the current era — .ckpt
// appears, .json disappears, learning continues where it left off.
func TestFleetMigratesLegacyJSONCheckpoint(t *testing.T) {
	bin := buildFleet(t)
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-speed", "200", "-shards", "2",
		"-dir", dir, "-checkpoint", "-1s",
	}

	// First run produces a learned checkpoint the normal way...
	cmd, out := startFleetProc(t, bin, args...)
	driveSession(t, awaitAddr(t, out), "ito-3")
	awaitOutput(t, out, `activity "tea-making" completed`)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fleet exited uncleanly: %v\n%s", err, out.String())
	}

	// ...which we rewrite as the legacy layout: JSON bytes in a bare
	// .json file, no current-era blobs at all.
	ckpt := filepath.Join(dir, "ito-3.ckpt")
	f, _, _, err := store.LoadMultiPolicy(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	episodes := f.Policies[0].Episodes
	legacy, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ito-3.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{ckpt, ckpt + store.BackupSuffix} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}

	// The restarted fleet admits from the legacy file and upgrades it.
	cmd2, out2 := startFleetProc(t, bin, args...)
	driveSession(t, awaitAddr(t, out2), "ito-3")
	awaitOutput(t, out2, "admitted ito-3 from checkpoint")
	awaitOutput(t, out2, `activity "tea-making" completed`)
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("restarted fleet exited uncleanly: %v\n%s", err, out2.String())
	}

	f2, _, _, err := store.LoadMultiPolicy(ckpt)
	if err != nil {
		t.Fatalf("no current-era checkpoint after migration: %v", err)
	}
	if f2.Policies[0].Episodes <= episodes {
		t.Errorf("episodes after migration = %d, want > %d (learning must have resumed)", f2.Policies[0].Episodes, episodes)
	}
	for _, stale := range []string{"ito-3.json", "ito-3.json" + store.BackupSuffix} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Errorf("legacy file %s survived migration", stale)
		}
	}
}

// TestFleetRecoversAfterSIGKILLDuringCheckpointChurn is the chaos leg of
// the binary-checkpoint acceptance: a fleet checkpointing at a very
// short interval is killed with SIGKILL (no shutdown flush, whatever
// write was in flight torn where it stood) and the restarted fleet must
// still admit the household from a usable checkpoint — the store's
// rotation plus the CKPT checksum guarantee some complete generation
// survives.
func TestFleetRecoversAfterSIGKILLDuringCheckpointChurn(t *testing.T) {
	bin := buildFleet(t)
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-speed", "200", "-shards", "2",
		"-dir", dir, "-checkpoint", "10ms",
	}

	cmd, out := startFleetProc(t, bin, args...)
	addr := awaitAddr(t, out)
	driveSession(t, addr, "kill-9")
	awaitOutput(t, out, `activity "tea-making" completed`)
	// Keep the tenant dirty so checkpoint waves keep rewriting its blob,
	// then kill without warning mid-churn.
	driveSession(t, addr, "kill-9")
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Whatever the kill left behind — stray temp, rotated-but-unrenamed
	// generation, torn primary — the load path must produce a complete
	// checkpoint.
	f, _, _, err := store.LoadMultiPolicy(filepath.Join(dir, "kill-9.ckpt"))
	if err != nil {
		t.Fatalf("checkpoint unusable after SIGKILL: %v", err)
	}
	if f.User != "kill-9" || f.Policies[0].Episodes < 1 {
		t.Errorf("recovered checkpoint = %+v, want at least one learned episode", f)
	}

	cmd2, out2 := startFleetProc(t, bin, args...)
	driveSession(t, awaitAddr(t, out2), "kill-9")
	awaitOutput(t, out2, "admitted kill-9 from checkpoint")
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("restarted fleet exited uncleanly: %v\n%s", err, out2.String())
	}
}

// freePort reserves an ephemeral port and releases it for a child
// process to bind: cluster peers need their addresses known up front
// (the address list IS the ring membership).
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// driveClusterSession is driveSession against a cluster: every tool
// client enters at entry and follows redirects to the household's owner.
func driveClusterSession(t *testing.T, entry, household string) {
	t.Helper()
	steps := coreda.TeaMaking().StepIDs()
	nodes := map[adl.ToolID]*rtbridge.NodeClient{}
	for _, step := range steps {
		n, err := rtbridge.DialCluster(entry, household, uint16(adl.ToolOf(step)), nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[adl.ToolOf(step)] = n
	}
	for _, step := range steps {
		n := nodes[adl.ToolOf(step)]
		if err := n.UseStart(time.Second, 5); err != nil {
			t.Fatal(err)
		}
		if err := n.UseEnd(2*time.Second, time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetClusterRedirectsAndReplicates is the two-process cluster
// acceptance test: nodes entering at the wrong peer are redirected to
// the household's owner, a session completes there, and shutdown
// replication leaves the owner's checkpoint on the other peer too.
func TestFleetClusterRedirectsAndReplicates(t *testing.T) {
	bin := buildFleet(t)
	peers := []string{freePort(t), freePort(t)}
	peerList := strings.Join(peers, ",")
	dirs := []string{t.TempDir(), t.TempDir()}

	var cmds [2]*exec.Cmd
	var outs [2]*procOutput
	addrs := make([]string, 2)
	for i := range cmds {
		cmds[i], outs[i] = startFleetProc(t, bin,
			"-addr", "127.0.0.1:0", "-speed", "200", "-shards", "2",
			"-dir", dirs[i], "-checkpoint", "-1s",
			"-peers", peerList, "-peer-addr", peers[i], "-replicas", "2")
		addrs[i] = awaitAddr(t, outs[i])
		awaitOutput(t, outs[i], "cluster: peer "+peers[i])
	}

	// Find a household the second peer owns, so entering at the first
	// forces a redirect.
	ring := cluster.NewRing(peers)
	household := ""
	for i := 0; i < 64 && household == ""; i++ {
		if h := fmt.Sprintf("cluster-h%d", i); ring.OwnerOf(h) == peers[1] {
			household = h
		}
	}
	if household == "" {
		t.Fatal("no household hashed to the second peer")
	}

	// A bare HelloWait at the wrong peer must name the owner's
	// node-facing address (not its peer address).
	n, err := rtbridge.DialNode(addrs[0], uint16(adl.ToolTeaBox), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rd *rtbridge.Redirected
	if err := n.HelloWait(household, 5*time.Second); !errors.As(err, &rd) || rd.Addr != addrs[1] {
		t.Fatalf("HelloWait at wrong peer = %v, want redirect to %s", err, addrs[1])
	}
	n.Close()

	driveClusterSession(t, addrs[0], household)
	awaitOutput(t, outs[1], `activity "tea-making" completed`)

	// SIGTERM the owner first: its shutdown sync must push the final
	// checkpoint to the surviving replica peer before the link closes.
	if err := cmds[1].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmds[1].Wait(); err != nil {
		t.Fatalf("owner exited uncleanly: %v\n%s", err, outs[1].String())
	}
	if err := cmds[0].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmds[0].Wait(); err != nil {
		t.Fatalf("peer exited uncleanly: %v\n%s", err, outs[0].String())
	}

	for i, dir := range dirs {
		f, _, _, err := store.LoadMultiPolicy(filepath.Join(dir, household+".ckpt"))
		if err != nil {
			t.Fatalf("dir %d: checkpoint for %s: %v", i, household, err)
		}
		if f.User != household || f.Policies[0].Episodes < 1 {
			t.Errorf("dir %d: checkpoint = %+v, want a learned episode", i, f)
		}
	}
}

// TestFleetDefaultHousehold pins legacy compatibility: a node that never
// says hello is served as the -default-household tenant.
func TestFleetDefaultHousehold(t *testing.T) {
	bin := buildFleet(t)
	dir := t.TempDir()
	cmd, out := startFleetProc(t, bin,
		"-addr", "127.0.0.1:0", "-speed", "200", "-dir", dir,
		"-default-household", "legacy", "-checkpoint", "-1s")
	addr := awaitAddr(t, out)

	n, err := rtbridge.DialNode(addr, uint16(adl.ToolTeaBox), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.UseStart(time.Second, 5); err != nil {
		t.Fatal(err)
	}
	awaitOutput(t, out, "admitted legacy fresh")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fleet exited uncleanly: %v\n%s", err, out.String())
	}
	if _, _, _, err := store.LoadMultiPolicy(filepath.Join(dir, "legacy.ckpt")); err != nil {
		t.Errorf("default household checkpoint: %v", err)
	}
}
