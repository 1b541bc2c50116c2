// Command perfbench is the repository benchmark. It runs one named
// workload against the SafeWeb backend (broker, STOMP front, engines,
// journal) or the MDT portal in this process, drives it from a seeded
// open-loop load generator, checks every output for correctness and
// prints its metrics by name with their units.
//
//	go run ./perfbench --workload fanout --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// the same workload runs with spans recorded around the calls into each
// layer, the layers' public functions are timed on the run's own inputs,
// and the per-layer metrics are reported instead; end-to-end numbers come
// only from untraced runs. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. The exit
// code is non-zero on any correctness violation (a leak to a principal
// without clearance) or when the workload cannot run.
//
// The benchmark drives the system only through exported functions, so
// every layer is measured from outside.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// workload is one traffic mix. why is recorded with every run.
type workload struct {
	name string
	why  string
	run  func(env *env) (*report, error)
}

var workloads = []workload{
	{"fanout", "trigger to producer engine to 100 subscriptions on one connection: routing, clearance, EncodeImage, consumer decode and engine dispatch dominate", runFanout},
	{"ingest", "windowed producer at fan-out 1 over 64 topics, 64 B-16 KiB bodies, half selected: SendImage, server decode, endorse check and selector dominate", runIngest},
	{"durable-catchup", "group replay of a reopened 200k-record SyncBatch journal beside live appends: journal Read, clearance-at-read and EncodeImageOffset dominate", runDurable},
	{"frontpage", "HTTP mix over every MDT account of a deployed portal: front page, records, detail and region compare in even shares (none measured), 10% cross-MDT refused; webfront, taint, template, docstore dominate", runFrontpage},
}

// env is what a workload run receives from the command line.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks rates and data sizes for smoke tests; the command
	// line always runs at 1.
	scale float64
	// dir is a scratch directory the workload may fill; removed at exit.
	dir string
	// start is when the process entered main.
	start time.Time
	// setupArgs are the arguments that rerun this workload's set-up in a
	// fresh process of this program (see coldSetup); nil times the
	// in-process set-up instead.
	setupArgs []string
	// setupOnly makes the run set its system up, print setupReady to out,
	// tear it down and end with errSetupOnly.
	setupOnly bool
	out       io.Writer
}

// measure is the measured window's length.
func (e *env) measure() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// scaled returns n scaled by env.scale, at least min.
func (e *env) scaled(n int, min int) int {
	v := int(float64(n) * e.scale)
	if v < min {
		v = min
	}
	return v
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what a workload run returns.
type report struct {
	e2e       []metric
	layers    []metric
	attempted int64
	failed    int64
	// leaks counts outputs that reached a principal without clearance;
	// any leak fails the run outright.
	leaks int64
	// latP50 is the op latency p50 in µs, timed from each op's due time.
	// Steal time on a shared host moves it by a factor of two from one
	// run to the next, so it is printed but not gated; a traced run
	// reports it as loadgen.lat_p50_us.
	latP50 float64
	// samples is the number of latency samples behind latP50.
	samples int
	notes   []string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, report when it is up and exit (how setup_s is measured)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	scratch := filepath.Join(*dir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1,
		dir: scratch, start: start, setupArgs: args, setupOnly: *setupOnly, out: stdout}
	fmt.Fprintf(stdout, "# workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(stdout, "# commit=%s nproc=%d GOMAXPROCS=%d go=%s seed=%d transport=tcp-loopback seconds=%g trace=%d\n",
		commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, *trace)
	rep, err := w.run(e)
	if errors.Is(err, errSetupOnly) {
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return emit(stdout, rep, e.trace)
}

// setupReady is the line a --setup-only process prints once its system is
// up; errSetupOnly ends such a run.
const setupReady = "# set-up done"

var errSetupOnly = errors.New("set-up only")

// setupTimeout bounds one set-up process.
const setupTimeout = 60 * time.Second

// coldSetup runs a workload's set-up in a fresh process of this program
// with args and returns the seconds from starting the process until it
// reported its system up. The time covers everything a run does before
// its first op: process and package initialisation, input generation
// and the workload's set-up. The process's teardown is not timed.
func coldSetup(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append(append([]string(nil), args...), "--setup-only")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var took time.Duration
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if took == 0 && sc.Text() == setupReady {
			took = time.Since(t0)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if took == 0 {
		return 0, errors.New("set-up process ended without reporting its system up")
	}
	return took.Seconds(), nil
}

// emit prints the report's metrics as text lines, then the result object
// as the last line of output, and returns the exit code.
func emit(w io.Writer, rep *report, traced bool) int {
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	ms := rep.e2e
	if traced {
		ms = rep.layers
	} else {
		fmt.Fprintf(w, "%-36s %14.4f %s (not gated)\n", "lat_p50_us", rep.latP50, "us")
	}
	out := make(map[string]map[string]any, len(ms))
	for _, m := range ms {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d error_rate=%.6f leaks=%d latency_samples=%d\n",
		rep.attempted, rep.failed, errRate, rep.leaks, rep.samples)
	correct := rep.leaks == 0 && rep.attempted > 0
	b, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintf(w, "# encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// commit is the VCS revision stamped into the binary, when it was built
// from a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by nearest rank (0 for none); xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// seqAttr parses the benchmark's sequence attribute; -1 when absent or
// malformed.
func seqAttr(v string) int {
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}
