package main

import (
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/selector"
)

const (
	// ingestRate keeps the pipeline below the load at which the clients'
	// and the server's writers start coalescing frames: from 15000 events
	// a second up, CPU per event moved by a fifth from run to run with how
	// much they coalesced.
	ingestRate   = 10000 // events per second
	ingestWindow = 64
	ingestTopics = 64
	// ingestInflight caps ops not yet accepted or delivered (0.1 s).
	ingestInflight = 2048
	ingestSelector = "kind = 'keep'"
)

var ingestClearance = label.MustParsePattern("label:conf:bench/in/cleared/*")

// Label classes of ingest events: half carry no label, a quarter one the
// consumer is cleared for, a quarter one it is not.
const (
	unlabelled = iota
	cleared
	secret
)

// ingestInputs are the seeded per-event inputs, kept compact (a few
// bytes an event) so that they do not dominate the process's memory.
type ingestInputs struct {
	ops     []ingestOp
	text    []byte
	cleared []label.Label
	secret  []label.Label
}

type ingestOp struct {
	topic, class, lab, attrs uint8
	keep                     bool
	off, size                uint16
	// attrSeed draws the extra attributes' names and values.
	attrSeed uint32
}

var ingestTopicNames, ingestAttrNames = names("/bench/in/", ingestTopics), names("a", 16)

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

func newIngestInputs(seed int64, n int) *ingestInputs {
	rnd := rand.New(rand.NewSource(seed))
	const maxBody = 16 << 10
	in := &ingestInputs{ops: make([]ingestOp, n), text: []byte(randText(rnd, maxBody))}
	for i := 0; i < 16; i++ {
		in.cleared = append(in.cleared, label.Conf("bench/in/cleared/"+strconv.Itoa(i)))
		in.secret = append(in.secret, label.Conf("bench/in/secret/"+strconv.Itoa(i)))
	}
	for i := range in.ops {
		op := &in.ops[i]
		op.topic = uint8(rnd.Intn(ingestTopics))
		switch r := rnd.Intn(4); {
		case r < 2:
			op.class = unlabelled
		case r == 2:
			op.class = cleared
		default:
			op.class = secret
		}
		op.lab = uint8(rnd.Intn(16))
		op.keep = rnd.Intn(2) == 0
		op.attrs = uint8(rnd.Intn(8))
		op.attrSeed = rnd.Uint32()
		// Log-distributed sizes from 64 B to 16 KiB.
		size := int(math.Exp(math.Log(64) + rnd.Float64()*math.Log(maxBody/64)))
		op.size = uint16(size)
		op.off = uint16(rnd.Intn(maxBody - size + 1))
	}
	return in
}

// event builds input i's event.
func (in *ingestInputs) event(i int) *event.Event {
	op := &in.ops[i]
	attrs := make(map[string]string, int(op.attrs)+2)
	x := op.attrSeed | 1
	for j := 0; j < int(op.attrs); j++ {
		x ^= x << 13 // xorshift32
		x ^= x >> 17
		x ^= x << 5
		attrs[ingestAttrNames[x%16]] = strconv.Itoa(int(x>>8) % 100000)
	}
	attrs["seq"] = strconv.Itoa(i)
	attrs["kind"] = "skip"
	if op.keep {
		attrs["kind"] = "keep"
	}
	var ev *event.Event
	switch op.class {
	case unlabelled:
		ev = event.New(ingestTopicNames[op.topic], attrs)
	case cleared:
		ev = event.New(ingestTopicNames[op.topic], attrs, in.cleared[op.lab])
	default:
		ev = event.New(ingestTopicNames[op.topic], attrs, in.secret[op.lab])
	}
	end := int(op.off) + int(op.size)
	ev.Body = in.text[op.off:end:end]
	return ev
}

// expected reports whether input i must reach the consumer.
func (in *ingestInputs) expected(i int) bool {
	return in.ops[i].keep && in.ops[i].class != secret
}

// ingest is a windowed producer client and one selecting consumer unit.
type ingest struct {
	*backend
	*ingestOps
	pub *broker.Client
}

// ingestOps is a run's per-op bookkeeping, allocated once, outside the
// timed set-ups.
type ingestOps struct {
	in    *ingestInputs
	log   *opLog
	taps  []atomic.Int32
	deliv []atomic.Int32
	// wrong counts deliveries the selector should have filtered.
	wrong, badSeq, leaks atomic.Int64

	tracing                atomic.Bool
	pubRet, tapAt, deliver []atomic.Int64
}

func newIngestOps(n int, in *ingestInputs) *ingestOps {
	return &ingestOps{in: in, log: newOpLog(n), taps: make([]atomic.Int32, n), deliv: make([]atomic.Int32, n),
		pubRet: make([]atomic.Int64, n), tapAt: make([]atomic.Int64, n), deliver: make([]atomic.Int64, n)}
}

func newIngest(ops *ingestOps) (*ingest, error) {
	policy := label.NewPolicy()
	policy.Grant("ingest-consumer", label.Clearance, ingestClearance)
	be, err := newBackend(policy, broker.ServerConfig{})
	if err != nil {
		return nil, err
	}
	g := &ingest{backend: be, ingestOps: ops}
	if err := g.start(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *ingest) start() error {
	if _, err := g.br.SubscribeTap("/bench/in/*", g.tap); err != nil {
		return err
	}
	cons, err := g.engine(broker.ClientConfig{})
	if err != nil {
		return err
	}
	err = cons.AddUnit(unit{name: "ingest-consumer", init: func(ctx *engine.InitContext) error {
		return ctx.Subscribe("/bench/in/*", ingestSelector, func(_ *engine.Context, ev *event.Event) error {
			g.consume(ev)
			return nil
		})
	}})
	if err != nil {
		return err
	}
	g.pub, err = broker.DialBus(g.srv.Addr(), broker.ClientConfig{Login: "ingester",
		PublishWindow: ingestWindow, SendTimeout: 10 * time.Second,
		OnError: func(err error) { g.busError("ingester", err) }})
	return err
}

// tap sees every accepted publish: the op is done here unless the
// consumer must receive it.
func (g *ingestOps) tap(ev *event.Event) {
	i := seqAttr(ev.Attr("seq"))
	if i < 0 || i >= len(g.taps) {
		g.badSeq.Add(1)
		return
	}
	g.taps[i].Add(1)
	if g.tracing.Load() {
		g.tapAt[i].Store(g.log.now())
	}
	if !g.in.expected(i) {
		g.log.complete(i)
	}
}

func (g *ingestOps) consume(ev *event.Event) {
	i := seqAttr(ev.Attr("seq"))
	if i < 0 || i >= len(g.deliv) {
		g.badSeq.Add(1)
		return
	}
	switch {
	case g.in.ops[i].class == secret || hasUncleared(ev.Labels, ingestClearance):
		g.leaks.Add(1)
	case !g.in.ops[i].keep || ev.Attr("kind") != "keep":
		g.wrong.Add(1)
	}
	if g.tracing.Load() {
		g.deliver[i].Store(g.log.now())
	}
	if g.deliv[i].Add(1) == 1 && g.in.expected(i) {
		g.log.complete(i)
	}
}

// check counts lost publishes and missing, duplicate or misrouted
// deliveries of the ops sent.
func (g *ingestOps) check(n int) (failed int64) {
	for i := 0; i < n; i++ {
		want := int32(0)
		if g.in.expected(i) {
			want = 1
		}
		if t := g.taps[i].Load(); t != 1 {
			failed++
		}
		if d := g.deliv[i].Load(); d != want {
			failed++
		}
	}
	return failed + g.wrong.Load() + g.badSeq.Load()
}

func (g *ingest) close() {
	g.closing.Store(true)
	if g.pub != nil {
		_ = g.pub.Close() // teardown; losses are counted by check
	}
	g.backend.close()
}

func runIngest(e *env) (*report, error) {
	measure := e.measure()
	gc := genConfig{rate: ingestRate * e.scale, measure: measure, maxInflight: ingestInflight,
		marks: windows(measure)}
	n := gc.opCount()
	in := newIngestInputs(e.seed, n)
	ops := newIngestOps(n, in)
	g, setups, err := timedSetups(e, func() (*ingest, error) { return newIngest(ops) }, (*ingest).close)
	if err != nil {
		return nil, err
	}
	defer g.close()

	half := len(gc.marks) / 2
	var snaps []sysSnap
	gc.onMark = func(k int) {
		snaps = append(snaps, g.snap())
		if e.trace && k == half {
			g.tracing.Store(true)
		}
	}
	st := runOpenLoop(g.log, gc, func(i int) error {
		err := g.pub.Publish(in.event(i))
		if g.tracing.Load() {
			g.pubRet[i].Store(g.log.now())
		}
		return err
	})
	g.tracing.Store(false)
	if err := g.pub.Flush(); err != nil {
		st.sendErrors++
	}
	waitDone(g.log, drainTimeout)
	g.stopEngines()

	rep := &report{attempted: int64(n), leaks: g.leaks.Load()}
	rep.failed = g.check(n) + g.systemFailures(true) + st.sendErrors
	rw := splitWindows(g.log, n, st, e.trace)
	lat, cpu, goodput := steady(rw.untraced)
	rep.samples = len(merge(rw.untraced).lat)
	rep.setEndToEnd(setups, lat, cpu, goodput)
	rep.notes = append(rep.notes, steadyNote(rw.untraced))
	if !e.trace {
		return rep, nil
	}

	wt := rw.traced()
	lv := baseLayers(rep, rw, st, wt)
	oc := brokerLayers(wt, snaps[rw.half], snaps[len(snaps)-1], lv)
	pubRet, tapAt, deliver := make([]int64, n), make([]int64, n), make([]int64, n)
	var labelled, notSecret float64
	for i := 0; i < n; i++ {
		pubRet[i], tapAt[i], deliver[i] = g.pubRet[i].Load(), g.tapAt[i].Load(), g.deliver[i].Load()
		if in.ops[i].class != unlabelled {
			labelled++
		}
		if in.ops[i].class != secret {
			notSecret++
		}
	}
	lv["broker.ingress_us"] = spanP50(pubRet, tapAt)
	lv["broker.fanout_first_us"] = spanP50(tapAt, deliver)
	lv["broker.fanout_last_us"] = lv["broker.fanout_first_us"] // fan-out 1

	sample := n
	if sample > 2000 {
		sample = 2000
	}
	ct, err := timeCodec(sample, in.event, g.br.Policy().PrivilegesOf("ingest-consumer"), selector.MustParse(ingestSelector))
	if err != nil {
		return nil, err
	}
	calls := perOpCalls{
		sends:      oc.sendBuilds,
		wireBuilds: oc.wireBuilds,
		encodes:    oc.delivered,
		decodes:    oc.delivered + oc.sendBuilds,
		// One subscription: labelled events get a clearance check, and
		// events that pass it a selector evaluation.
		checks:  labelled / float64(n),
		parses:  labelled / float64(n) * (1 + oc.delivered),
		matches: notSecret / float64(n),
	}
	attributed := codecLayers(ct, calls, wt.cpuPerOp(), lv)
	traceLayers(merge(rw.untraced), wt, attributed, lv)
	rep.notes = append(rep.notes, fig5Note(lv))
	rep.layers = lv.metrics()
	return rep, nil
}
