package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
)

// result is the last line a run prints.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Raw       map[string]json.RawMessage `json:"metrics"`
}

// TestMain lets a test run this binary as the benchmark program, as
// coldSetup does with the program proper.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_PROGRAM") == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeScale shrinks the workloads' rates and data sizes for the smoke
// test; the command line has no way to change them.
const smokeScale = 0.02

// runSmall runs a workload in this process at smokeScale, with its set-up
// timed in-process, and returns the exit code and the parsed last line.
func runSmall(t *testing.T, w workload, trace bool) (int, result, string) {
	t.Helper()
	e := &env{seed: 3, seconds: 1.6, trace: trace, scale: smokeScale, dir: t.TempDir(), start: time.Now()}
	rep, err := w.run(e)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var out bytes.Buffer
	code := emit(&out, rep, trace)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return code, r, out.String()
}

// TestSmokeWorkloads runs every workload at a tiny size, traced, and the
// first one untraced too: each must finish correct, with no failed op,
// and print exactly the metrics BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i, w := range workloads {
		traces := []bool{true}
		if i == 0 {
			traces = append(traces, false)
		}
		for _, tr := range traces {
			name := w.name + "/trace=0"
			if tr {
				name = w.name + "/trace=1"
			}
			t.Run(name, func(t *testing.T) {
				code, r, out := runSmall(t, w, tr)
				if code != 0 || !r.Correct || r.Attempted == 0 {
					t.Fatalf("exit %d, correct %v, failed %d of %d\n%s", code, r.Correct, r.Failed, r.Attempted, out)
				}
				// The scaled-down portal has MDTs without metrics, whose front
				// page answers 500 (template: unknown variable "metrics"); the
				// run counts those as failed. Any other failure fails the test.
				if n5xx := count5xx(out); r.Failed != n5xx || (n5xx > 0 && w.name != "frontpage") {
					t.Fatalf("failed %d of %d, %d of them 5xx\n%s", r.Failed, r.Attempted, n5xx, out)
				} else if n5xx > 0 {
					t.Logf("%d front pages answered 500: the known defect for MDTs without metrics", n5xx)
				}
				want := map[string]bool{}
				if !tr {
					for _, m := range endToEnd {
						want[m.name] = true
					}
				} else {
					for _, m := range perLayer {
						want[m.name] = true
					}
				}
				if len(r.Raw) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(r.Raw), len(want))
				}
				for name := range want {
					if _, ok := r.Raw[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				if w.name == "fanout" && tr {
					var m struct{ Value float64 }
					if err := json.Unmarshal(r.Raw["event.wire_image_builds_per_op"], &m); err != nil || m.Value != 1 {
						t.Errorf("event.wire_image_builds_per_op = %v (%v), want exactly 1", m.Value, err)
					}
				}
			})
		}
	}
}

// TestColdSetup sets fanout up in a fresh process, the way setup_s is
// measured, and checks that the process reports its system up and ends.
func TestColdSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a process")
	}
	t.Setenv("PERFBENCH_AS_PROGRAM", "1")
	s, err := coldSetup([]string{"--workload", "fanout", "--seed", "3", "--seconds", "1", "--dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s >= setupTimeout.Seconds() {
		t.Errorf("set-up took %v s", s)
	}
	if _, err := coldSetup([]string{"--workload", "nope"}); err == nil {
		t.Error("a set-up process that fails: no error")
	}
}

// count5xx reads the 5xx count a frontpage run notes.
func count5xx(out string) int64 {
	i := strings.Index(out, " 5xx=")
	if i < 0 {
		return 0
	}
	var n int64
	for _, c := range out[i+len(" 5xx="):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

func TestBadArguments(t *testing.T) {
	var out, errs bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fanout", "--trace", "2"},
		{"--workload", "fanout", "--seconds", "0"},
	} {
		if code := realMain(args, &out, &errs); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program's own
// workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %+v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if p := spec.PerLayer[i]; p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %+v", i, p, m)
		}
	}
}

// TestFanoutCheckerFlags feeds the fanout checker a delivery log with a
// duplicate and a missing delivery and a downgraded label set.
func TestFanoutCheckerFlags(t *testing.T) {
	const n = 3
	in := newFanoutInputs(1, n)
	f := newFanoutOps(n, in)
	for s := 0; s < fanoutSubs; s++ {
		for i := 0; i < n; i++ {
			f.consume(s, in.event(i))
		}
	}
	if got := f.check(n); got != 0 {
		t.Fatalf("clean log: %d failures", got)
	}

	f.consume(7, in.event(1)) // duplicate, out of order
	if got := f.check(n); got != 2 {
		t.Errorf("duplicate: %d failures, want 2 (extra delivery, order)", got)
	}

	g := newFanoutOps(n, in)
	for s := 0; s < fanoutSubs; s++ {
		for i := 0; i < n; i++ {
			if s == 3 && i == 2 {
				continue // missing
			}
			ev := in.event(i)
			if s == 5 && i == 0 {
				ev = event.New("/bench/out", map[string]string{"seq": "0"}, in.mdt[0], fanoutApp)
			}
			g.consume(s, ev)
		}
	}
	if got := g.check(n); got != 2 {
		t.Errorf("missing delivery and dropped label: %d failures, want 2", got)
	}
	if g.log.completed.Load() != n-1 {
		t.Errorf("%d ops complete, want %d (the op missing a delivery is not)", g.log.completed.Load(), n-1)
	}
}

// TestIngestCheckerFlags feeds the ingest checker a leak, a duplicate, a
// missing delivery and a selector miss.
func TestIngestCheckerFlags(t *testing.T) {
	const n = 400
	in := newIngestInputs(2, n)
	mk := func() *ingest {
		return &ingest{ingestOps: newIngestOps(n, in)}
	}
	g := mk()
	var expected, secretOp, skipOp = -1, -1, -1
	for i := 0; i < n; i++ {
		g.tap(in.event(i))
		if in.expected(i) {
			g.consume(in.event(i))
			if expected < 0 {
				expected = i
			}
		}
		if in.ops[i].class == secret && secretOp < 0 {
			secretOp = i
		}
		if !in.ops[i].keep && in.ops[i].class != secret && skipOp < 0 {
			skipOp = i
		}
	}
	if got := g.check(n); got != 0 || g.leaks.Load() != 0 {
		t.Fatalf("clean log: %d failures, %d leaks", got, g.leaks.Load())
	}

	g.consume(in.event(secretOp))
	if g.leaks.Load() != 1 {
		t.Errorf("delivery of an uncleared event: %d leaks, want 1", g.leaks.Load())
	}
	g = mk()
	for i := 0; i < n; i++ {
		g.tap(in.event(i))
		if in.expected(i) && i != expected {
			g.consume(in.event(i))
		}
	}
	g.consume(in.event(skipOp)) // the selector should have dropped it
	g.consume(in.event(expected))
	g.consume(in.event(expected)) // duplicate
	if got := g.check(n); got != 3 {
		t.Errorf("selector miss and duplicate: %d failures, want 3 (misrouted, its count, duplicate)", got)
	}
	g = mk()
	for i := 0; i < n; i++ {
		g.tap(in.event(i))
		if in.expected(i) && i != expected {
			g.consume(in.event(i))
		}
	}
	if got := g.check(n); got != 1 {
		t.Errorf("missing delivery: %d failures, want 1", got)
	}
}

// TestFrontpageJudge flags a 500, a refused own page, a served cross-MDT
// request and a foreign patient id in an own page.
func TestFrontpageJudge(t *testing.T) {
	own := map[string]bool{"30000001": true, "100000003": true}
	known := map[string]bool{"30000001": true, "30000002": true, "100000003": true, "123456789": true}
	front := frontReq{user: "mdt-1", kind: reqFront, path: "/"}
	cross := frontReq{user: "mdt-1", kind: reqCross, path: "/records/mdt-2"}
	for _, c := range []struct {
		name           string
		r              frontReq
		status         int
		body           string
		failed, leaked bool
	}{
		{"own page", front, http.StatusOK, `<td>30000001</td>`, false, false},
		{"500", front, http.StatusInternalServerError, `internal error`, true, false},
		{"own page refused", front, http.StatusForbidden, ``, true, false},
		{"foreign patient in own page", front, http.StatusOK, `<td>30000002</td>`, false, true},
		{"own nine-digit patient", front, http.StatusOK, `<td>100000003</td>`, false, false},
		{"foreign nine-digit patient", front, http.StatusOK, `<td>123456789</td>`, false, true},
		{"cross refused", cross, http.StatusForbidden, `not a member of this MDT`, false, false},
		{"cross served", cross, http.StatusOK, `[]`, true, true},
		{"cross 500", cross, http.StatusInternalServerError, ``, true, false},
		{"unknown number", front, http.StatusOK, `0.12345678`, false, false},
	} {
		o := judge(c.r, c.status, []byte(c.body), own, known)
		if o.failed != c.failed || o.leaked != c.leaked {
			t.Errorf("%s: failed=%v leaked=%v, want %v %v", c.name, o.failed, o.leaked, c.failed, c.leaked)
		}
	}
}

// TestEmitExitCode makes a leak fail the run and keeps failed ops in the
// result without failing it.
func TestEmitExitCode(t *testing.T) {
	var b bytes.Buffer
	if code := emit(&b, &report{attempted: 10, failed: 2}, false); code != 0 {
		t.Errorf("failed ops without a leak: exit %d, want 0", code)
	}
	if !strings.Contains(b.String(), `"failed":2`) {
		t.Errorf("result lacks the failure count: %s", b.String())
	}
	b.Reset()
	if code := emit(&b, &report{attempted: 10, leaks: 1}, false); code == 0 {
		t.Error("leak: exit 0")
	}
	if !strings.Contains(b.String(), `"correct":false`) {
		t.Errorf("leak not reported as incorrect: %s", b.String())
	}
}

// TestReplayCheckFlags feeds the replay checker a group's deliveries
// with a duplicate, a gap and an uncleared record.
func TestReplayCheckFlags(t *testing.T) {
	// Offsets 0-6; 2 and 5 are uncleared, so a group receives 0 1 3 4 6.
	class := []uint8{cleared, unlabelled, secret, cleared, unlabelled, secret, cleared}
	ok := label.NewSet(label.Conf("bench/dur/ok/1"))
	bad := label.NewSet(label.Conf("bench/dur/secret/1"))
	c := newReplayCheck(class)
	var failed int64
	for _, i := range []int{0, 1, 3, 4, 6} {
		if !c.cleared(i, ok) {
			t.Errorf("record %d: flagged as a leak", i)
		}
		failed += c.next(i)
	}
	if failed != 0 {
		t.Fatalf("clean replay: %d failures", failed)
	}

	c = newReplayCheck(class)
	failed = 0
	for _, i := range []int{0, 1, 1, 4, 6} { // 1 twice, 3 missing
		failed += c.next(i)
	}
	if failed != 2 {
		t.Errorf("duplicate and gap: %d failures, want 2", failed)
	}
	c = newReplayCheck(class)
	if failed := c.next(0) + c.next(6); failed != 3 {
		t.Errorf("gap over 1 3 4: %d failures, want 3 (uncleared records are no gap)", failed)
	}

	if c.cleared(2, ok) {
		t.Error("uncleared record delivered: not flagged")
	}
	if c.cleared(3, bad) {
		t.Error("record delivered with an uncleared label: not flagged")
	}
	if c.cleared(-1, ok) || c.cleared(len(class), ok) {
		t.Error("record outside the journal: not flagged")
	}
}

func TestHasUncleared(t *testing.T) {
	ok := label.Conf("bench/in/cleared/1")
	bad := label.Conf("bench/in/secret/1")
	if hasUncleared(label.NewSet(ok, label.Int("bench/app")), ingestClearance) {
		t.Error("cleared set flagged")
	}
	if !hasUncleared(label.NewSet(ok, bad), ingestClearance) {
		t.Error("uncleared label missed")
	}
}
