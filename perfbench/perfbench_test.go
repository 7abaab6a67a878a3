package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		idx     int
		pct     float64
		ok      bool
		comment string
	}{
		{n: 1000, want: 99, idx: 989, pct: 99, ok: true, comment: "p99 supported: exactly 10 beyond"},
		{n: 5000, want: 99, idx: 4949, pct: 99, ok: true, comment: "p99 with 50 beyond"},
		{n: 500, want: 99, idx: 489, pct: 98, ok: true, comment: "lowered to p98 to keep 10 beyond"},
		{n: 11, want: 99, idx: 0, pct: 100.0 / 11, ok: true, comment: "smallest supported sample"},
		{n: 10, want: 99, ok: false, comment: "no rank leaves 10 beyond"},
		{n: 0, want: 50, ok: false},
		{n: 100, want: 50, idx: 49, pct: 50, ok: true, comment: "the median is not lowered"},
	} {
		idx, pct, ok := tailRank(tc.n, tc.want)
		if ok != tc.ok || (ok && (idx != tc.idx || math.Abs(pct-tc.pct) > 1e-9)) {
			t.Errorf("tailRank(%d, %v) = %d, %v, %v; want %d, %v, %v (%s)", tc.n, tc.want, idx, pct, ok, tc.idx, tc.pct, tc.ok, tc.comment)
		}
		if ok && tc.n-1-idx < minBeyond {
			t.Errorf("tailRank(%d, %v): only %d samples beyond rank %d", tc.n, tc.want, tc.n-1-idx, idx)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]int64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, int64(i))
	}
	d := summarize(xs, 99)
	// 200 samples: p99 would leave 2 beyond, so the tail drops to the
	// 190th value (p95), which leaves exactly 10 beyond.
	if d.N != 200 || d.P50 != 100 || d.Tail != 190 || d.TailPct != 95 || d.Max != 200 {
		t.Fatalf("summarize = %+v", d)
	}
	if d := summarize(nil, 99); d.N != 0 || d.TailPct != 0 {
		t.Fatalf("summarize(nil) = %+v", d)
	}
}

func TestLEDMatcher(t *testing.T) {
	if _, err := newLEDMatcher([][]uint16{{10, 11}, {11, 12}}); err == nil {
		t.Fatal("colliding UID blocks accepted")
	}
	if _, err := newLEDMatcher([][]uint16{{0, 1}}); err == nil {
		t.Fatal("reserved UID 0 accepted")
	}
	pop := newPopulation("s", 256, 1000)
	m, err := newLEDMatcher(pop.toolUIDs())
	if err != nil {
		t.Fatalf("disjoint blocks rejected: %v", err)
	}
	for h := range pop.names {
		for k := 0; k < toolsPerHousehold; k++ {
			if got := m.household(pop.uid(h, k)); got != h {
				t.Fatalf("uid %d -> household %d, want %d", pop.uid(h, k), got, h)
			}
		}
	}
	if got := m.household(pop.base - 1); got != -1 {
		t.Fatalf("uid outside every block -> household %d, want -1", got)
	}
}

func TestShiftedTeaMaking(t *testing.T) {
	pop := newPopulation("s", 3, 1000)
	a := pop.activity(2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, step := range a.Steps {
		if uint16(step.Tool) != pop.uid(2, k) {
			t.Fatalf("step %d tool %d, want %d", k, step.Tool, pop.uid(2, k))
		}
		if tool, ok := a.Tool(step.Tool); !ok || tool.ID != step.Tool {
			t.Fatalf("step %d tool %d not declared", k, step.Tool)
		}
	}
}

func TestStageSum(t *testing.T) {
	if ratio, ok := stageSumOK([]float64{60, 5, 30}, 100); !ok || math.Abs(ratio-0.95) > 1e-9 {
		t.Fatalf("stageSumOK within tolerance = %v, %v", ratio, ok)
	}
	if _, ok := stageSumOK([]float64{40, 5, 20}, 100); ok {
		t.Fatal("stages accounting for 65% of the median accepted")
	}
	if _, ok := stageSumOK([]float64{100, 5, 30}, 100); ok {
		t.Fatal("stages accounting for 135% of the median accepted")
	}
	if _, ok := stageSumOK([]float64{1, 1, 1}, 0); ok {
		t.Fatal("zero median accepted")
	}
	var st stageSamples
	st.add(700, 20, 300)
	if st.remind[0] != 1020 {
		t.Fatalf("stages of one request sum to %d, want 1020", st.remind[0])
	}
}

func TestScheduleDeterminism(t *testing.T) {
	pop := newPopulation("s", 64, 1000)
	spec := trafficSpec{Rate: 1000, BeatRate: 100, Conns: 2, Length: 5 * time.Second}
	a, b := buildSchedule(7, pop, spec), buildSchedule(7, pop, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(8, pop, spec)) {
		t.Fatal("different seeds gave the same schedule")
	}
	usage := 0
	for c, sched := range a {
		current := -1
		for i, e := range sched {
			if int(e.hh)%spec.Conns != c {
				t.Fatalf("conn %d carries household %d", c, e.hh)
			}
			if i > 0 && (e.at < sched[i-1].at || e.seq != sched[i-1].seq+1) {
				t.Fatalf("conn %d entry %d out of order: %+v after %+v", c, i, e, sched[i-1])
			}
			if e.kind == kindHello {
				current = int(e.hh)
			} else if int(e.hh) != current {
				t.Fatalf("conn %d entry %d for household %d sent without its hello", c, i, e.hh)
			}
			if e.usage() {
				usage++
			}
		}
	}
	if want := spec.Rate * spec.Length.Seconds(); math.Abs(float64(usage)-want) > 0.1*want {
		t.Fatalf("%d usage frames, want about %.0f", usage, want)
	}
}

func TestScriptSessions(t *testing.T) {
	pop := newPopulation("s", 1, 1000)
	spec := trafficSpec{Rate: 1000, Conns: 1, Length: 2 * time.Second}
	var frames []entry
	for _, e := range buildSchedule(3, pop, spec)[0] {
		if e.usage() {
			frames = append(frames, e)
		}
	}
	swapped := 0
	for s := 0; s+8 <= len(frames); s += 8 {
		var order []int
		for i := 0; i < 8; i += 2 {
			start, end := frames[s+i], frames[s+i+1]
			if start.kind != kindStart || end.kind != kindEnd || start.uid != end.uid || end.dur < 1000 || end.dur >= 2000 {
				t.Fatalf("session %d use %d: %+v then %+v", s/8, i/2, start, end)
			}
			order = append(order, int(start.uid-pop.base))
		}
		if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
			swapped++
			diff := 0
			for k, step := range order {
				if step != k {
					diff++
				}
			}
			if diff != 2 {
				t.Fatalf("session %d order %v is not one adjacent swap", s/8, order)
			}
		}
	}
	if n := len(frames) / 8; swapped == 0 || swapped == n {
		t.Fatalf("%d of %d sessions swapped; want about one in three", swapped, n)
	}
}

func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload for a second")
	}
	m, err := runServe(params{workload: "serve", seed: 1, seconds: 1, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.gates) != 0 {
		t.Fatalf("gates failed: %v", m.gates)
	}
	if m.user.wrongTool == 0 || len(m.user.remind) != m.user.wrongTool {
		t.Fatalf("%d wrong-tool reminders, %d matched", m.user.wrongTool, len(m.user.remind))
	}
	for _, d := range endToEndMetrics {
		if _, ok := m.endToEnd()[d.name]; !ok {
			t.Fatalf("metric %s missing", d.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []metricJSON
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s lists %d metrics, the benchmark reports %d", c.name, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", c.name, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

type metricJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}
