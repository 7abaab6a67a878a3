package main

import "fmt"

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload's untraced run. The
// user-visible latencies are per-layer metrics instead: on a shared
// 2-CPU host even their medians moved by more than any usable bound from
// run to run (see NOTES.md).
var endToEndMetrics = []metricDef{
	{"cpu_us_per_event", "us"},
	{"events_per_s", "1/s"},
	{"resident_bytes_per_household", "bytes"},
	{"setup_s", "s"},
}

// perLayerMetrics are reported by every workload's traced run. A layer
// a workload does not exercise reports 0 (cluster.* outside replicate,
// fleet.admit_us on serve).
var perLayerMetrics = []metricDef{
	{"remind_p50_ms", "ms"},
	{"remind_p99_ms", "ms"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"fleet.transport_ms_p50", "ms"},
	{"fleet.transport_ms_p99", "ms"},
	{"coreda.plan_us_p50", "us"},
	{"coreda.plan_us_p99", "us"},
	{"fleet.writeback_ms_p50", "ms"},
	{"fleet.writeback_ms_p99", "ms"},
	{"fleet.stage_sum_ratio", "ratio"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.frames_per_read", "frames/read"},
	{"fleet.hello_per_usage", "ratio"},
	{"store.put_count", "count"},
	{"store.put_us", "us"},
	{"store.write_us", "us"},
	{"store.commit_us", "us"},
	{"store.wave_ms", "ms"},
	{"store.fsync_count", "count"},
	{"store.bytes_written", "bytes"},
	{"store.get_count", "count"},
	{"store.get_us", "us"},
	{"store.decode_us", "us"},
	{"store.get_fallbacks", "count"},
	{"fleet.admit_us_p50", "us"},
	{"fleet.admit_us_p99", "us"},
	{"fleet.deliver_block_us", "us"},
	{"fleet.stop_ms", "ms"},
	{"fleet.flush_ms", "ms"},
	{"queue.job_retries", "count"},
	{"fleet.writeback_failures", "count"},
	{"notify.eviction_queued", "count"},
	{"notify.checkpoint_files", "count"},
	{"notify.dropped", "count"},
	{"cluster.sync_ms_p50", "ms"},
	{"cluster.sync_ms_max", "ms"},
	{"cluster.replicated", "count"},
	{"cluster.failed", "count"},
	{"cluster.degraded", "count"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_count", "count"},
	{"runtime.heap_objects_per_household", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.lag_max_ms", "ms"},
	{"trace.overhead_remind_p50_ms", "ms"},
	{"trace.overhead_cpu_us_per_event", "us"},
}

// measurement is one run of a workload: every pass's samples pooled.
type measurement struct {
	setup []float64 // seconds, one per set-up
	user  frontReport
	// Per timed pass: usage events per wall second and CPU per event.
	passEPS, passCPU []float64
	resBytes, resObj []float64 // per pass, at peak residency
	win              meter     // all timed windows together
	events           int64     // usage events in the timed windows
	attempted        int64
	failed           int64
	gates            []string
	lines            []string

	// Traced runs only.
	tr                  *tracer
	deliverNs, delivers int64 // Fleet.Deliver calls made by the benchmark
	layer               map[string]float64
	stages              stageSamples
}

// stageSamples split each traced wrong-tool reminder into transport
// (scheduled send -> OnStep), plan (OnStep -> OnReminder) and writeback
// (OnReminder -> red LED received); remind is the same request end to
// end, so the three add up to it exactly.
type stageSamples struct {
	transport, plan, writeback, remind []int64
}

func (m *measurement) gate(format string, args ...any) {
	m.gates = append(m.gates, fmt.Sprintf(format, args...))
}

func (m *measurement) note(format string, args ...any) {
	m.lines = append(m.lines, fmt.Sprintf(format, args...))
}

// addFront folds one front's traffic into the measurement: its frames
// are operations, and its gate failures fail them.
func (m *measurement) addFront(r frontReport) {
	m.user.ack = append(m.user.ack, r.ack...)
	m.user.remind = append(m.user.remind, r.remind...)
	m.user.lag = append(m.user.lag, r.lag...)
	m.user.encNs = append(m.user.encNs, r.encNs...)
	m.user.decNs = append(m.user.decNs, r.decNs...)
	m.user.usageSent += r.usageSent
	m.user.hellos += r.hellos
	m.user.beats += r.beats
	m.user.wrongTool += r.wrongTool
	m.user.idle += r.idle
	m.user.reads += r.reads
	m.user.frames += r.frames
	m.user.unacked += r.unacked
	m.user.badAcks += r.badAcks
	m.user.badLEDs += r.badLEDs
	m.user.badFrames += r.badFrames
	m.user.unmatched += r.unmatched
	m.stages.transport = append(m.stages.transport, r.stages.transport...)
	m.stages.plan = append(m.stages.plan, r.stages.plan...)
	m.stages.writeback = append(m.stages.writeback, r.stages.writeback...)
	m.stages.remind = append(m.stages.remind, r.stages.remind...)
	m.attempted += int64(r.usageSent)
	if n := r.failures(); n > 0 {
		m.failed += int64(n)
		m.gate("user path: %d failures (frames unacked %d, bad acks %d, LEDs for unknown tools %d, bad frames %d, wrong-tool reminders not matched to frame and red LED %d)",
			n, r.unacked, r.badAcks, r.badLEDs, r.badFrames, r.unmatched)
	}
}

// addPass records one timed pass of a soak workload over events usage
// events.
func (m *measurement) addPass(pass *meter, events int64) {
	m.events += events
	m.attempted += events
	m.passEPS = append(m.passEPS, float64(events)/pass.wall.Seconds())
	m.passCPU = append(m.passCPU, float64(pass.cpu.Microseconds())/float64(events))
}

// failAll marks every operation failed (a gate that invalidates the
// whole run, such as a digest mismatch).
func (m *measurement) failAll(format string, args ...any) {
	m.gate(format, args...)
	m.failed = m.attempted
}

const (
	nsPerMs = 1e6
	nsPerUs = 1e3
)

// checkUser applies the user-path validity rules shared by every
// workload: there must be enough reminders for a tail, and the
// generator must not have lagged past the tails it reports.
func (m *measurement) checkUser() {
	if m.user.usageSent == 0 {
		return // no user path in this workload
	}
	ack, remind, lag := summarize(m.user.ack, 99), summarize(m.user.remind, 99), summarize(m.user.lag, 99)
	if remind.TailPct == 0 || ack.TailPct == 0 {
		m.failAll("user path: too few samples for a tail (%d reminders, %d acks)", remind.N, ack.N)
		return
	}
	if lag.Tail > remind.Tail || lag.Tail > ack.Tail {
		m.failAll("invalid: generator lag p%.4g %.3f ms exceeds a reported tail (remind %.3f ms, ack %.3f ms)",
			lag.TailPct, float64(lag.Tail)/nsPerMs, float64(remind.Tail)/nsPerMs, float64(ack.Tail)/nsPerMs)
	}
}

func (m *measurement) endToEnd() map[string]metric {
	v := map[string]float64{
		"cpu_us_per_event":             medianFloat(m.passCPU),
		"events_per_s":                 medianFloat(m.passEPS),
		"resident_bytes_per_household": medianFloat(m.resBytes),
		"setup_s":                      medianFloat(m.setup),
	}
	return fill(endToEndMetrics, v)
}

func fill(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// perLayer assembles the traced run's per-layer metrics; base is the
// untraced run of the same inputs, for the tracing overhead.
func (m *measurement) perLayer(base *measurement) map[string]metric {
	v := make(map[string]float64, len(perLayerMetrics))
	for k, x := range m.layer {
		v[k] = x
	}
	// User-visible latency of the untraced run of the same inputs.
	ack, remind := summarize(base.user.ack, 99), summarize(base.user.remind, 99)
	v["remind_p50_ms"], v["remind_p99_ms"] = float64(remind.P50)/nsPerMs, float64(remind.Tail)/nsPerMs
	v["ack_p50_ms"], v["ack_p99_ms"] = float64(ack.P50)/nsPerMs, float64(ack.Tail)/nsPerMs
	st := &m.stages
	tp, pl, wb, rm := summarize(st.transport, 99), summarize(st.plan, 99), summarize(st.writeback, 99), summarize(st.remind, 99)
	v["fleet.transport_ms_p50"], v["fleet.transport_ms_p99"] = float64(tp.P50)/nsPerMs, float64(tp.Tail)/nsPerMs
	v["coreda.plan_us_p50"], v["coreda.plan_us_p99"] = float64(pl.P50)/nsPerUs, float64(pl.Tail)/nsPerUs
	v["fleet.writeback_ms_p50"], v["fleet.writeback_ms_p99"] = float64(wb.P50)/nsPerMs, float64(wb.Tail)/nsPerMs
	ratio, _ := stageSumOK([]float64{float64(tp.P50), float64(pl.P50), float64(wb.P50)}, float64(rm.P50))
	v["fleet.stage_sum_ratio"] = ratio
	v["wire.encode_ns"] = float64(summarize(m.user.encNs, 99).P50)
	v["wire.decode_ns"] = float64(summarize(m.user.decNs, 99).P50)
	if m.user.reads > 0 {
		v["wire.frames_per_read"] = float64(m.user.frames) / float64(m.user.reads)
	}
	if m.user.usageSent > 0 {
		v["fleet.hello_per_usage"] = float64(m.user.hellos) / float64(m.user.usageSent)
	}
	for _, s := range []struct {
		span, metric string
		scale        float64
	}{
		{"store.put", "store.put_us", nsPerUs},
		{"store.write", "store.write_us", nsPerUs},
		{"store.commit", "store.commit_us", nsPerUs},
		{"store.wave", "store.wave_ms", nsPerMs},
		{"store.get", "store.get_us", nsPerUs},
		{"store.decode", "store.decode_us", nsPerUs},
		{"fleet.stop", "fleet.stop_ms", nsPerMs},
		{"fleet.flush", "fleet.flush_ms", nsPerMs},
	} {
		v[s.metric] = float64(summarize(m.tr.durations(s.span), 99).P50) / s.scale
	}
	ad := summarize(m.tr.durations("fleet.admit"), 99)
	v["fleet.admit_us_p50"], v["fleet.admit_us_p99"] = float64(ad.P50)/nsPerUs, float64(ad.Tail)/nsPerUs
	sy := summarize(m.tr.durations("cluster.sync"), 99)
	v["cluster.sync_ms_p50"], v["cluster.sync_ms_max"] = float64(sy.P50)/nsPerMs, float64(sy.Max)/nsPerMs
	if m.delivers > 0 {
		v["fleet.deliver_block_us"] = float64(m.deliverNs) / float64(m.delivers) / nsPerUs
	}
	if m.events > 0 {
		v["runtime.allocs_per_event"] = float64(m.win.mallocs) / float64(m.events)
	}
	v["runtime.gc_pause_ms"] = float64(m.win.pauseNs) / nsPerMs
	v["runtime.gc_count"] = float64(m.win.gcs)
	v["runtime.heap_objects_per_household"] = medianFloat(m.resObj)
	lag := summarize(m.user.lag, 99)
	v["gen.lag_p99_ms"], v["gen.lag_max_ms"] = float64(lag.Tail)/nsPerMs, float64(lag.Max)/nsPerMs
	traced, untraced := summarize(m.user.remind, 99), summarize(base.user.remind, 99)
	v["trace.overhead_remind_p50_ms"] = float64(traced.P50-untraced.P50) / nsPerMs
	v["trace.overhead_cpu_us_per_event"] = medianFloat(m.passCPU) - medianFloat(base.passCPU)
	return fill(perLayerMetrics, v)
}

// print writes the human-readable report of a measurement to stdout
// (every line starts with "# ", so the JSON result stays the last line).
func (m *measurement) print(kind string) {
	ack, remind, lag := summarize(m.user.ack, 99), summarize(m.user.remind, 99), summarize(m.user.lag, 99)
	m.note("%s run: setup_s per set-up %v", kind, m.setup)
	if m.user.usageSent > 0 {
		m.note("remind latency (scheduled send -> red LED): %s", remind.describe(nsPerMs, "ms"))
		m.note("ack latency (scheduled send -> ack): %s", ack.describe(nsPerMs, "ms"))
		m.note("generator lateness (actual - scheduled send): %s", lag.describe(nsPerMs, "ms"))
		m.note("user path: %d usage frames, %d hellos, %d heartbeats sent; %d wrong-tool and %d idle reminders (idle ones have no causing frame and are not in remind latency)",
			m.user.usageSent, m.user.hellos, m.user.beats, m.user.wrongTool, m.user.idle)
	}
	m.note("events %d in %.3f s timed (cpu %.3f s); per pass events/s %v cpu us/event %v; resident bytes/household %v",
		m.events, m.win.wall.Seconds(), m.win.cpu.Seconds(), round(m.passEPS), round(m.passCPU), round(m.resBytes))
	if m.tr != nil && len(m.stages.remind) > 0 {
		st := &m.stages
		tp, pl, wb, rm := summarize(st.transport, 99), summarize(st.plan, 99), summarize(st.writeback, 99), summarize(st.remind, 99)
		ratio, ok := stageSumOK([]float64{float64(tp.P50), float64(pl.P50), float64(wb.P50)}, float64(rm.P50))
		m.note("stage breakdown of traced remind latency (p50 %.4f ms, %d requests):", float64(rm.P50)/nsPerMs, rm.N)
		m.note("  transport (send -> OnStep)    %s", tp.describe(nsPerMs, "ms"))
		m.note("  plan (OnStep -> OnReminder)   %s", pl.describe(nsPerUs, "us"))
		m.note("  writeback (OnReminder -> LED) %s", wb.describe(nsPerMs, "ms"))
		m.note("  stage medians sum to %.3f x remind p50 (tolerance ±%.0f%%, within: %v)", ratio, stageTolerance*100, ok)
	}
	for _, g := range m.gates {
		m.note("GATE FAILED: %s", g)
	}
	for _, l := range m.lines {
		report("%s", l)
	}
}

func round(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}

func (st *stageSamples) add(transport, plan, writeback int64) {
	st.transport = append(st.transport, transport)
	st.plan = append(st.plan, plan)
	st.writeback = append(st.writeback, writeback)
	st.remind = append(st.remind, transport+plan+writeback)
}
