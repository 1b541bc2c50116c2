package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// Warm-up excluded from every measured window: connection buffers, pools,
// caches and the scheduler settle before the first measured op is due.
const warmup = time.Second

// opLog stamps every op of a run with its due, send and completion time,
// in nanoseconds since the generator's start. Completion is the first
// complete call; later ones are the workload's business (duplicates).
type opLog struct {
	base time.Time
	due  []int64
	sent []int64
	done []atomic.Int64
	// started and completed bound the in-flight count.
	started, completed atomic.Int64
}

func newOpLog(n int) *opLog {
	return &opLog{due: make([]int64, n), sent: make([]int64, n), done: make([]atomic.Int64, n)}
}

// now is the time since the generator started, never 0 for a started run.
func (l *opLog) now() int64 { return int64(time.Since(l.base)) + 1 }

// complete marks op i done now, unless it already was.
func (l *opLog) complete(i int) {
	if i >= 0 && i < len(l.done) && l.done[i].CompareAndSwap(0, l.now()) {
		l.completed.Add(1)
	}
}

// snapshot is the process state at a window boundary.
type snapshot struct {
	at     int64 // ns since the generator's start
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	gcCPU  float64
	allCPU float64
	sched  *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeSnapshot(at int64) snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := snapshot{at: at, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.bytes = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.allCPU = ms[3].Value.Float64()
	s.sched = ms[4].Value.Float64Histogram()
	return s
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// genConfig fixes an open-loop schedule: ops are due at a fixed rate from
// the start, whatever the system does. maxInflight caps outstanding ops;
// at the cap the generator waits, so a stall shows as lateness and
// backlog instead of an unbounded burst.
type genConfig struct {
	rate        float64
	measure     time.Duration
	maxInflight int64
	// marks are offsets from the start at which a snapshot is taken,
	// before the first op due at or after the mark is sent; the last
	// mark is taken after the last op was sent, at its own time.
	marks []time.Duration
	// onMark runs at each mark with its index, after the snapshot.
	onMark func(k int)
}

// windows returns the marks of a run: the measured window follows the
// warm-up and is cut into sub-windows of about a second, an even number
// of them, so that end-to-end figures can be medians over sub-windows and
// a traced run can measure its first half untraced and its second half
// traced.
func windows(measure time.Duration) []time.Duration {
	k := 2 * int(measure/(2*time.Second))
	if k < 2 {
		k = 2
	}
	marks := make([]time.Duration, k+1)
	for i := range marks {
		marks[i] = warmup + measure*time.Duration(i)/time.Duration(k)
	}
	return marks
}

// genStats summarises the generator's own behaviour.
type genStats struct {
	snaps []snapshot
	// backlogMax is the most ops that were due but not yet sent.
	backlogMax int64
	// sendErrors counts ops whose send call failed.
	sendErrors int64
}

// batch is how many ops share a due time: above 2000 ops a second ops
// arrive in batches half a millisecond apart or more, so the generator
// wakes at most 2000 times a second however high the rate.
func (g *genConfig) batch() int {
	return max(1, int(math.Ceil(g.rate/2000)))
}

// interval returns the spacing of the schedule's batches.
func (g *genConfig) interval() time.Duration {
	return time.Duration(float64(time.Second) * float64(g.batch()) / g.rate)
}

// opCount is the number of ops a schedule sends.
func (g *genConfig) opCount() int {
	return int((warmup+g.measure)/g.interval()) * g.batch()
}

// runOpenLoop sends ops 0..n-1 on the schedule, each through send, and
// returns once the last mark was taken. The schedule starts at log.base,
// or now if that is unset. It runs on the caller's
// goroutine; a send call that blocks (a serial client waiting for its
// response) delays the ops after it, which shows as their lateness.
func runOpenLoop(log *opLog, g genConfig, send func(i int) error) genStats {
	iv, b := int64(g.interval()), int64(g.batch())
	n := g.opCount()
	var st genStats
	if log.base.IsZero() {
		log.base = time.Now()
	}
	for i := range log.due[:n] {
		log.due[i] = int64(i)/b*iv + 1
	}
	mark := 0
	takeMark := func() {
		st.snaps = append(st.snaps, takeSnapshot(log.now()))
		if g.onMark != nil {
			g.onMark(mark)
		}
		mark++
	}
	for i := 0; i < n; i++ {
		due := log.due[i]
		for mark < len(g.marks)-1 && due >= int64(g.marks[mark]) {
			sleepUntil(log, int64(g.marks[mark]))
			takeMark()
		}
		sleepUntil(log, due)
		for log.started.Load()-log.completed.Load() >= g.maxInflight {
			time.Sleep(50 * time.Microsecond)
		}
		t := log.now()
		if bl := ((t-1)/iv+1)*b - int64(i); bl > st.backlogMax {
			st.backlogMax = bl
		}
		log.sent[i] = t
		log.started.Add(1)
		if err := send(i); err != nil {
			st.sendErrors++
		}
	}
	for mark < len(g.marks) {
		sleepUntil(log, int64(g.marks[mark]))
		takeMark()
	}
	return st
}

// sleepUntil waits for a due time. The runtime's timers wake a sleeper
// on an idle processor at millisecond granularity, which would make the
// generator's own lateness most of a sub-millisecond latency; the last
// stretch is a nanosleep system call instead, which the kernel times
// precisely and which costs no CPU.
func sleepUntil(log *opLog, at int64) {
	d := at - log.now()
	if d > int64(2*time.Millisecond) {
		time.Sleep(time.Duration(d) - time.Millisecond)
		d = at - log.now()
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only sends sooner
	}
}

// waitDone waits until every sent op completed or the timeout passed.
func waitDone(log *opLog, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for log.completed.Load() < log.started.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// window is the measurement between two snapshots.
type window struct {
	from, to snapshot
	ops      int64 // ops completed within the window
	lat      []float64
	late     []float64
}

// measureWindow collects the ops due within [a, b) for latency and
// lateness, and the ops completed within it for throughput.
func measureWindow(log *opLog, n int, a, b snapshot) window {
	w := window{from: a, to: b}
	for i := 0; i < n; i++ {
		d := log.done[i].Load()
		if d > a.at && d <= b.at {
			w.ops++
		}
		if log.due[i] < a.at || log.due[i] >= b.at {
			continue
		}
		w.late = append(w.late, float64(log.sent[i]-log.due[i])/1e3)
		if d > 0 {
			w.lat = append(w.lat, float64(d-log.due[i])/1e3)
		}
	}
	return w
}

func (w window) seconds() float64 { return float64(w.to.at-w.from.at) / 1e9 }

// subWindows measures each pair of consecutive snapshots.
func subWindows(log *opLog, n int, snaps []snapshot) []window {
	ws := make([]window, len(snaps)-1)
	for i := range ws {
		ws[i] = measureWindow(log, n, snaps[i], snaps[i+1])
	}
	return ws
}

// runWindows are a finished run's sub-windows. In a traced run tracing
// was on from mark half on, so only the first half is untraced.
type runWindows struct {
	all, untraced []window
	half          int
}

func splitWindows(log *opLog, n int, st genStats, traced bool) runWindows {
	rw := runWindows{all: subWindows(log, n, st.snaps), half: len(st.snaps) - 1}
	if traced {
		rw.half = len(st.snaps) / 2
	}
	rw.untraced = rw.all[:rw.half]
	return rw
}

// traced is the traced half of a traced run, merged.
func (rw runWindows) traced() window { return merge(rw.all[rw.half:]) }

// merge joins consecutive windows into one.
func merge(ws []window) window {
	w := window{from: ws[0].from, to: ws[len(ws)-1].to}
	for _, x := range ws {
		w.ops += x.ops
		w.lat = append(w.lat, x.lat...)
		w.late = append(w.late, x.late...)
	}
	return w
}

// steady returns the end-to-end figures of consecutive windows: latency
// p50 and CPU per op as medians over the windows, so that a burst of
// interference from outside the process moves one window rather than the
// result, and goodput over their union.
func steady(ws []window) (latP50, cpuPerOp, goodput float64) {
	var lats, cpus []float64
	for _, w := range ws {
		lats = append(lats, median(append([]float64(nil), w.lat...)))
		cpus = append(cpus, w.cpuPerOp())
	}
	all := merge(ws)
	return median(lats), median(cpus), float64(all.ops) / all.seconds()
}

// cpuPerOp is process CPU in the window per completed op, in µs.
func (w window) cpuPerOp() float64 {
	if w.ops == 0 {
		return 0
	}
	return float64(w.to.cpu-w.from.cpu) / 1e3 / float64(w.ops)
}

func (w window) perOp(a, b uint64) float64 {
	if w.ops == 0 {
		return 0
	}
	return float64(b-a) / float64(w.ops)
}

// runtimeMetrics are the runtime layer's per-layer metrics for the window.
func (w window) runtimeMetrics() layerValues {
	gcShare := 0.0
	if d := w.to.allCPU - w.from.allCPU; d > 0 {
		gcShare = (w.to.gcCPU - w.from.gcCPU) / d
	}
	return layerValues{
		"runtime.allocs_per_op":      w.perOp(w.from.allocs, w.to.allocs),
		"runtime.alloc_bytes_per_op": w.perOp(w.from.bytes, w.to.bytes),
		"runtime.gc_cpu_share":       gcShare,
		"runtime.sched_lat_p99_us":   histDeltaQuantile(w.from.sched, w.to.sched, 0.99) * 1e6,
	}
}

// histDeltaQuantile is the q-quantile of the observations b added over a,
// read at bucket upper bounds.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > want {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// loadgenMetrics are the generator's validity checks for a window.
func loadgenMetrics(w window, st genStats) layerValues {
	lat := append([]float64(nil), w.lat...)
	late := append([]float64(nil), w.late...)
	return layerValues{
		"loadgen.late_p50_us": quantile(late, 0.5),
		"loadgen.late_p99_us": quantile(late, 0.99),
		"loadgen.lat_p99_us":  quantile(lat, 0.99),
		"loadgen.backlog_max": float64(st.backlogMax),
		"loadgen.samples":     float64(len(w.lat)),
	}
}

// steadyNote lists the per-window figures steady takes medians of.
func steadyNote(ws []window) string {
	lat, cpu := make([]int, len(ws)), make([]int, len(ws))
	for i, w := range ws {
		lat[i] = int(median(append([]float64(nil), w.lat...)))
		cpu[i] = int(w.cpuPerOp())
	}
	return fmt.Sprintf("per-second lat_p50_us %v cpu_us_per_op %v", lat, cpu)
}
