// Command perfbench is CoReDA's benchmark. It drives the system only
// through its public API and measures three workloads:
//
//   - serve: open-loop usage frames over TCP into an in-process
//     fleet.Server (assist mode, learning on, periodic checkpoint waves),
//     timed from each frame's scheduled send to its ack and to the red
//     LED of the wrong-tool reminder it caused;
//   - churn: fleet.SoakSessions streams for thousands of households
//     delivered closed-loop through Fleet.Deliver, every household
//     evicted and re-admitted from its checkpoint mid-life;
//   - replicate: the same soak split across two in-process cluster
//     nodes, each round ending in Fleet.Flush + Node.Sync.
//
// Usage (from the repository root; see run.sh):
//
//	perfbench --workload serve --seed 1 --seconds 10 --trace 0 --out DIR
//
// The last line of stdout is the JSON result. With --trace 0 it holds
// the end-to-end metrics of an untraced run; with --trace 1 the
// per-layer metrics of a traced run, preceded by an untraced run of the
// same inputs whose difference is reported as the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(params) (*measurement, error){
	"serve":     runServe,
	"churn":     runChurn,
	"replicate": runReplicate,
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "serve, churn or replicate")
	flag.Int64Var(&p.seed, "seed", 1, "input seed")
	flag.IntVar(&p.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.StringVar(&p.out, "out", ".bench_build/perfbench", "directory for checkpoints, traces and reports")
	flag.Parse()
	p.trace = trace == 1
	run, ok := workloads[p.workload]
	if !ok || p.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", p.workload, p.seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := execute(p, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the workload (twice for a traced run: untraced, then
// traced) and assembles the result.
func execute(p params, run func(params) (*measurement, error)) (*result, error) {
	env := environment(p)
	report("env %s", env)
	base := p
	base.trace = false
	m, err := run(base)
	if err != nil {
		return nil, err
	}
	m.checkUser()
	m.print("untraced")
	res := &result{Correct: len(m.gates) == 0, Attempted: m.attempted, Failed: m.failed}
	if !p.trace {
		res.Metrics = m.endToEnd()
		return res, m.save(p, env, "untraced")
	}
	tm, err := run(p)
	if err != nil {
		return nil, err
	}
	tm.checkUser()
	tm.print("traced")
	res.Correct = res.Correct && len(tm.gates) == 0
	res.Attempted += tm.attempted
	res.Failed += tm.failed
	res.Metrics = tm.perLayer(m)
	report("tracing overhead (traced minus untraced, same inputs): remind_p50_ms %+.4f, cpu_us_per_event %+.3f",
		res.Metrics["trace.overhead_remind_p50_ms"].Value, res.Metrics["trace.overhead_cpu_us_per_event"].Value)
	if err := tm.tr.write(filepath.Join(p.out, fmt.Sprintf("trace-%s-seed%d.jsonl", p.workload, p.seed))); err != nil {
		return nil, err
	}
	return res, tm.save(p, env, "traced")
}

// environment records what a result depends on besides the code: host
// CPUs, GOMAXPROCS, Go version, where checkpoints live (memory for the
// timed work; out_fs is the filesystem under the output directory, where
// the reference soak writes) and the run shape.
func environment(p params) string {
	fs := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(p.out, &st); err == nil {
		switch uint64(st.Type) {
		case 0x01021994:
			fs = "tmpfs"
		case 0xEF53:
			fs = "ext4"
		case 0x58465342:
			fs = "xfs"
		case 0x9123683E:
			fs = "btrfs"
		case 0x794C7630:
			fs = "overlayfs"
		default:
			fs = fmt.Sprintf("0x%x", uint64(st.Type))
		}
	}
	return fmt.Sprintf("workload=%s seed=%d run_seconds=%d host_cpus=%d gomaxprocs=%d go=%s ckpt=memory out_fs=%s",
		p.workload, p.seed, p.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fs)
}

// save writes the human-readable report of one measurement next to the
// traces, so every result file carries its environment.
func (m *measurement) save(p params, env, kind string) error {
	path := filepath.Join(p.out, fmt.Sprintf("report-%s-seed%d-%s.txt", p.workload, p.seed, kind))
	lines := append([]string{"env " + env}, m.lines...)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
