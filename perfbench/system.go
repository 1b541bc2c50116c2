package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// setup_s is the median set-up time of at least minSetups fresh
// processes, more until they took setupBudget in total (at most
// maxSetups), so that a fast set-up is sampled often enough for its
// median to hold still.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// drainTimeout bounds the wait for ops still in flight after the
// schedule ended; ops not done by then count as failed.
const drainTimeout = 10 * time.Second

// unit adapts a name and an init function to engine.Unit.
type unit struct {
	name string
	init func(ctx *engine.InitContext) error
}

func (u unit) Name() string                       { return u.name }
func (u unit) Init(ctx *engine.InitContext) error { return u.init(ctx) }

// faults counts errors the system reports through a hook and logs the
// first few.
type faults struct{ n atomic.Int64 }

func (f *faults) report(format string, args ...any) {
	if f.n.Add(1) <= 5 {
		logf(format, args...)
	}
}

// logf logs the system's own diagnostics to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// backend is a broker with its STOMP front and the engines whose units
// talk to it over loopback TCP.
type backend struct {
	br      *broker.Broker
	srv     *broker.Server
	engines []*engine.Engine
	// busErrs are client-side bus errors, each a failed op; diag only
	// logs hooks that mirror counters systemFailures already reads.
	busErrs, diag faults
	closing       atomic.Bool
}

func newBackend(policy *label.Policy, scfg broker.ServerConfig) (*backend, error) {
	b := &backend{br: broker.New(policy)}
	scfg.Logf = logf
	scfg.OnDeliveryError = func(sid uint64, sub string, _ *event.Event, err error) {
		b.diag.report("delivery to session %d sub %s: %v", sid, sub, err)
	}
	srv, err := broker.NewServer("127.0.0.1:0", b.br, scfg)
	if err != nil {
		b.br.Close()
		return nil, err
	}
	b.srv = srv
	return b, nil
}

// engine starts an engine whose units dial the broker front with cfg
// (Login set per unit).
func (b *backend) engine(cfg broker.ClientConfig) (*engine.Engine, error) {
	e, err := engine.New(engine.Config{
		Policy: b.br.Policy(),
		Bus: func(principal string) (broker.Bus, error) {
			c := cfg
			c.Login = principal
			c.OnError = func(err error) { b.busError(principal, err) }
			return broker.DialBus(b.srv.Addr(), c)
		},
		QueueSize: 1024,
		OnCallbackError: func(u string, _ *event.Event, err error) {
			b.diag.report("unit %s: %v", u, err)
		},
		Logf: logf,
	})
	if err != nil {
		return nil, err
	}
	b.engines = append(b.engines, e)
	return e, nil
}

// busError counts a client's asynchronous error, unless the backend is
// being torn down (disconnects then report EOF).
func (b *backend) busError(who string, err error) {
	if !b.closing.Load() {
		b.busErrs.report("bus %s: %v", who, err)
	}
}

// stopEngines stops every engine, waiting for their workers.
func (b *backend) stopEngines() {
	b.closing.Store(true)
	for _, e := range b.engines {
		e.Stop()
	}
}

func (b *backend) close() {
	b.stopEngines()
	_ = b.srv.Close() // teardown; a close error changes nothing here
	b.br.Close()
}

// engineStats sums the engines' counters.
func (b *backend) engineStats() engine.Stats {
	var s engine.Stats
	for _, e := range b.engines {
		es := e.Stats()
		s.EventsProcessed += es.EventsProcessed
		s.CallbackErrors += es.CallbackErrors
		s.FlowViolations += es.FlowViolations
	}
	return s
}

// sysSnap is the backend's public counters at a window boundary.
type sysSnap struct {
	b          broker.Stats
	s          broker.ServerStats
	e          engine.Stats
	wire, send uint64
}

func (b *backend) snap() sysSnap {
	return sysSnap{b: b.br.Stats(), s: b.srv.Stats(), e: b.engineStats(),
		wire: event.WireImageBuilds(), send: event.SendImageBuilds()}
}

// opCounts are per-op counter deltas of a window.
type opCounts struct {
	published, delivered, filteredByLabel, wireBuilds, sendBuilds float64
}

// brokerLayers turns the counter deltas of a window into the broker,
// engine and event per-op metrics, and returns the per-op counts.
func brokerLayers(w window, a, z sysSnap, lv layerValues) opCounts {
	pub := z.b.Published - a.b.Published
	perPub := func(x, y uint64) float64 {
		if pub == 0 {
			return 0
		}
		return float64(y-x) / float64(pub)
	}
	lv.add(layerValues{
		"broker.delivered_per_op":            w.perOp(a.b.Delivered, z.b.Delivered),
		"broker.filtered_by_label_per_op":    w.perOp(a.b.FilteredByLabel, z.b.FilteredByLabel),
		"broker.filtered_by_selector_per_op": w.perOp(a.b.FilteredBySelector, z.b.FilteredBySelector),
		"broker.rejected_publish":            float64(z.b.RejectedPublish),
		"broker.dropped_deliveries":          float64(z.s.DroppedDeliveries),
		"broker.overflow_drops":              float64(z.s.OverflowDrops),
		"broker.queue_high_water":            float64(z.s.QueueHighWater),
		"broker.replay_filtered_per_op":      w.perOp(a.s.ReplayFiltered, z.s.ReplayFiltered),
		"broker.durable_appends_per_op":      w.perOp(a.s.DurableAppends, z.s.DurableAppends),
		"broker.journal_append_errors":       float64(z.s.JournalAppendErrors),
		"engine.callback_errors":             float64(z.e.CallbackErrors),
		"engine.flow_violations":             float64(z.e.FlowViolations),
		// Per published event: the publish-once image invariant reads 1.
		"event.wire_image_builds_per_op": perPub(a.wire, z.wire),
		"event.send_image_builds_per_op": perPub(a.send, z.send),
	})
	return opCounts{
		published:       w.perOp(a.b.Published, z.b.Published),
		delivered:       w.perOp(a.b.Delivered, z.b.Delivered),
		filteredByLabel: w.perOp(a.b.FilteredByLabel, z.b.FilteredByLabel),
		wireBuilds:      w.perOp(a.wire, z.wire),
		sendBuilds:      w.perOp(a.send, z.send),
	}
}

// systemFailures counts the failures the backend's public counters
// report over the whole run; withDrops says whether dropped deliveries
// count.
func (b *backend) systemFailures(withDrops bool) int64 {
	bs, ss, es := b.br.Stats(), b.srv.Stats(), b.engineStats()
	n := bs.RejectedPublish + ss.OverflowDrops + ss.JournalAppendErrors + es.CallbackErrors + es.FlowViolations
	if withDrops {
		n += ss.DroppedDeliveries
	}
	return int64(n) + b.busErrs.n.Load()
}

// timedSetups times the workload's set-up in fresh processes (see
// coldSetup), then builds the system this run measures and returns it
// with those times in seconds. Without setupArgs (tests)
// it times the in-process build from the process's start instead. The
// one-second warm-up is not part of set-up: it is a constant.
func timedSetups[T any](e *env, build func() (T, error), close func(T)) (T, []float64, error) {
	var zero T
	if e.setupOnly {
		s, err := build()
		if err != nil {
			return s, nil, err
		}
		fmt.Fprintln(e.out, setupReady)
		close(s)
		return zero, nil, errSetupOnly
	}
	var times []float64
	total := 0.0
	for e.setupArgs != nil && len(times) < maxSetups && (len(times) < minSetups || total < setupBudget.Seconds()) {
		t, err := coldSetup(e.setupArgs)
		if err != nil {
			return zero, nil, err
		}
		times = append(times, t)
		total += t
	}
	s, err := build()
	if err != nil {
		return s, nil, err
	}
	if e.setupArgs == nil {
		times = append(times, time.Since(e.start).Seconds())
	}
	return s, times, nil
}
