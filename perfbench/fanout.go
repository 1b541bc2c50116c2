package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

const (
	fanoutSubs = 100
	// fanoutRate keeps about 40% of two cores busy. Much below that the
	// runtime flips between cheaper and dearer scheduling regimes from
	// one run to the next, and CPU per trigger with it.
	fanoutRate = 1300 // triggers per second
	// fanoutInflight caps outstanding triggers (a quarter second of load).
	fanoutInflight = 256
)

var (
	fanoutApp = label.Int("bench/app")
	// fanoutProbes subscribe in-process to the labelled output without
	// the clearance for all of its labels; any delivery to one is a leak.
	fanoutProbes = map[string]string{
		"probe-none":    "",
		"probe-mdt":     "label:conf:bench/mdt/*",
		"probe-patient": "label:conf:bench/patient/*",
	}
)

// fanoutInputs are the seeded per-trigger inputs: the output's labels
// and body.
type fanoutInputs struct {
	mdt, patient []label.Label
	body         [][]byte
}

func newFanoutInputs(seed int64, n int) *fanoutInputs {
	rnd := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, 32)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"patient_id": %d, "type": "cancer", "stage": %d, "summary": %q}`,
			30000000+rnd.Intn(9999999), rnd.Intn(5), randText(rnd, 20+rnd.Intn(300))))
	}
	in := &fanoutInputs{mdt: make([]label.Label, n), patient: make([]label.Label, n), body: make([][]byte, n)}
	for i := 0; i < n; i++ {
		in.mdt[i] = label.Conf("bench/mdt/" + strconv.Itoa(rnd.Intn(8)))
		in.patient[i] = label.Conf("bench/patient/" + strconv.Itoa(rnd.Intn(256)))
		in.body[i] = bodies[rnd.Intn(len(bodies))]
	}
	return in
}

// event is the output event op i's trigger produces.
func (in *fanoutInputs) event(i int) *event.Event {
	ev := event.New("/bench/out", map[string]string{"seq": strconv.Itoa(i)}, in.mdt[i], in.patient[i], fanoutApp)
	ev.Body = in.body[i]
	return ev
}

func randText(rnd *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz     "
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rnd.Intn(len(letters))]
	}
	return string(b)
}

// fanout is the trigger → producer engine → 100-subscription pipeline.
type fanout struct {
	*backend
	*fanoutOps
}

// fanoutOps is a run's per-op bookkeeping, allocated once, outside the
// timed set-ups.
type fanoutOps struct {
	in  *fanoutInputs
	log *opLog
	// deliv counts consumer deliveries per op; last is each subscription's
	// last delivered op (written by that subscription's worker only).
	deliv       []atomic.Int32
	last        []atomic.Int64
	outOfOrder  atomic.Int64
	wrongLabels atomic.Int64
	badSeq      atomic.Int64
	leaks       atomic.Int64

	tracing atomic.Bool
	// Spans, stamped in the traced half only (ns since the run's start).
	prodAt, pubRet, tapAt, firstAt []atomic.Int64
	ctxPubNs                       []atomic.Int64
}

func newFanoutOps(n int, in *fanoutInputs) *fanoutOps {
	ops := &fanoutOps{in: in, log: newOpLog(n),
		deliv: make([]atomic.Int32, n), last: make([]atomic.Int64, fanoutSubs),
		prodAt: make([]atomic.Int64, n), pubRet: make([]atomic.Int64, n), tapAt: make([]atomic.Int64, n),
		firstAt: make([]atomic.Int64, n), ctxPubNs: make([]atomic.Int64, n)}
	for s := range ops.last {
		ops.last[s].Store(-1)
	}
	return ops
}

func newFanout(ops *fanoutOps) (*fanout, error) {
	policy := label.NewPolicy()
	policy.Grant("consumer", label.Clearance, label.MustParsePattern("label:conf:bench/*"))
	policy.Grant("producer", label.Clearance, label.MustParsePattern("label:conf:bench/*"))
	policy.Grant("producer", label.Endorse, label.Exact(fanoutApp))
	for p, pat := range fanoutProbes {
		if pat != "" {
			policy.Grant(p, label.Clearance, label.MustParsePattern(pat))
		}
	}
	be, err := newBackend(policy, broker.ServerConfig{})
	if err != nil {
		return nil, err
	}
	f := &fanout{backend: be, fanoutOps: ops}
	if err := f.start(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fanout) start() error {
	for p := range fanoutProbes {
		if _, err := f.br.Subscribe(p, "/bench/out", "", func(*event.Event) { f.leaks.Add(1) }); err != nil {
			return err
		}
	}
	if _, err := f.br.SubscribeTap("/bench/out", func(ev *event.Event) {
		if f.tracing.Load() {
			if i := seqAttr(ev.Attr("seq")); i >= 0 && i < len(f.tapAt) {
				f.tapAt[i].Store(f.log.now())
			}
		}
	}); err != nil {
		return err
	}

	cons, err := f.engine(broker.ClientConfig{})
	if err != nil {
		return err
	}
	err = cons.AddUnit(unit{name: "consumer", init: func(ctx *engine.InitContext) error {
		for s := 0; s < fanoutSubs; s++ {
			s := s
			if err := ctx.Subscribe("/bench/out", "", func(_ *engine.Context, ev *event.Event) error {
				f.consume(s, ev)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		return err
	}

	prod, err := f.engine(broker.ClientConfig{})
	if err != nil {
		return err
	}
	return prod.AddUnit(unit{name: "producer", init: func(ctx *engine.InitContext) error {
		return ctx.Subscribe("/bench/trigger", "", f.produce)
	}})
}

// produce is the producer unit's callback: republish the trigger as the
// labelled, endorsed output event.
func (f *fanout) produce(ctx *engine.Context, ev *event.Event) error {
	seq := ev.Attr("seq")
	i := seqAttr(seq)
	if i < 0 || i >= len(f.deliv) {
		f.badSeq.Add(1)
		return nil
	}
	tr := f.tracing.Load()
	var t0 int64
	if tr {
		t0 = f.log.now()
		f.prodAt[i].Store(t0)
	}
	err := ctx.Publish("/bench/out", map[string]string{"seq": seq}, f.in.body[i],
		engine.WithAdd(f.in.mdt[i], f.in.patient[i], fanoutApp))
	if tr {
		t1 := f.log.now()
		f.pubRet[i].Store(t1)
		f.ctxPubNs[i].Store(t1 - t0)
	}
	return err
}

// consume is subscription s's callback: check the delivery and complete
// the op on its last delivery.
func (f *fanoutOps) consume(s int, ev *event.Event) {
	i := seqAttr(ev.Attr("seq"))
	if i < 0 || i >= len(f.deliv) {
		f.badSeq.Add(1)
		return
	}
	if !ev.Labels.Contains(f.in.mdt[i]) || !ev.Labels.Contains(f.in.patient[i]) || !ev.Labels.Contains(fanoutApp) {
		f.wrongLabels.Add(1)
	}
	if prev := f.last[s].Load(); int64(i) <= prev {
		f.outOfOrder.Add(1)
	} else {
		f.last[s].Store(int64(i))
	}
	c := f.deliv[i].Add(1)
	if c == 1 && f.tracing.Load() {
		f.firstAt[i].Store(f.log.now())
	}
	if c == fanoutSubs {
		f.log.complete(i)
	}
}

// check counts missing and duplicate deliveries of the ops sent.
func (f *fanoutOps) check(n int) (failed int64) {
	for i := 0; i < n; i++ {
		if d := int64(f.deliv[i].Load()) - fanoutSubs; d != 0 {
			if d < 0 {
				d = -d
			}
			failed += d
		}
	}
	return failed + f.outOfOrder.Load() + f.wrongLabels.Load() + f.badSeq.Load()
}

func runFanout(e *env) (*report, error) {
	g := genConfig{rate: fanoutRate * e.scale, measure: e.measure(), maxInflight: fanoutInflight, marks: windows(e.measure())}
	n := g.opCount()
	ops := newFanoutOps(n, newFanoutInputs(e.seed, n))
	f, setups, err := timedSetups(e, func() (*fanout, error) { return newFanout(ops) }, (*fanout).close)
	if err != nil {
		return nil, err
	}
	defer f.close()

	half := len(g.marks) / 2
	var snaps []sysSnap
	g.onMark = func(k int) {
		snaps = append(snaps, f.snap())
		if e.trace && k == half {
			f.tracing.Store(true)
		}
	}
	trigger := func(i int) error {
		return f.br.Publish("loadgen", event.New("/bench/trigger", map[string]string{"seq": strconv.Itoa(i)}))
	}
	st := runOpenLoop(f.log, g, trigger)
	f.tracing.Store(false)
	waitDone(f.log, drainTimeout)
	f.stopEngines()

	rep := &report{attempted: int64(n) * fanoutSubs, leaks: f.leaks.Load()}
	rep.failed = f.check(n) + f.systemFailures(true) + st.sendErrors
	rw := splitWindows(f.log, n, st, e.trace)
	lat, cpu, goodput := steady(rw.untraced)
	rep.samples = len(merge(rw.untraced).lat)
	rep.setEndToEnd(setups, lat, cpu, goodput)
	rep.notes = append(rep.notes, steadyNote(rw.untraced))
	if !e.trace {
		return rep, nil
	}

	// Traced run: the second half of the window recorded spans.
	wt := rw.traced()
	lv := baseLayers(rep, rw, st, wt)
	oc := brokerLayers(wt, snaps[rw.half], snaps[len(snaps)-1], lv)
	sent := make([]int64, n)
	done := make([]int64, n)
	var prodAt, pubRet, tapAt, firstAt []int64
	var ctxPub []float64
	for i := 0; i < n; i++ {
		sent[i], done[i] = f.log.sent[i], f.log.done[i].Load()
		prodAt = append(prodAt, f.prodAt[i].Load())
		pubRet = append(pubRet, f.pubRet[i].Load())
		tapAt = append(tapAt, f.tapAt[i].Load())
		firstAt = append(firstAt, f.firstAt[i].Load())
		if v := f.ctxPubNs[i].Load(); v > 0 {
			ctxPub = append(ctxPub, float64(v))
		}
	}
	lv["broker.ingress_us"] = spanP50(pubRet, tapAt)
	lv["broker.fanout_first_us"] = spanP50(tapAt, firstAt)
	lv["broker.fanout_last_us"] = spanP50(tapAt, done)
	lv["engine.trigger_dispatch_us"] = spanP50(sent, prodAt)
	lv["engine.ctx_publish_ns"] = median(ctxPub)

	// Time the codec and label layers on the run's own output events.
	sample := n
	if sample > 2000 {
		sample = 2000
	}
	ct, err := timeCodec(sample, f.in.event, f.br.Policy().PrivilegesOf("consumer"), nil)
	if err != nil {
		return nil, err
	}
	calls := perOpCalls{
		sends:      oc.sendBuilds,
		wireBuilds: oc.wireBuilds,
		encodes:    oc.delivered,                 // every delivery is networked
		decodes:    oc.delivered + oc.sendBuilds, // + the server's decode of each SEND
		// Every output delivery or label filtering is one clearance check;
		// the unlabelled trigger delivery is not.
		checks: oc.delivered - 1 + oc.filteredByLabel,
		// The server parses each SEND's label header; the consumer's
		// connection cache parses each new header once.
		parses: 2,
	}
	attributed := codecLayers(ct, calls, wt.cpuPerOp(), lv)
	traceLayers(merge(rw.untraced), wt, attributed, lv)
	rep.notes = append(rep.notes, fig5Note(lv))
	rep.layers = lv.metrics()
	return rep, nil
}
