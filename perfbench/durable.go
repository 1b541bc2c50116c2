package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/label"
)

const (
	durableTopic   = "/bench/durable"
	durablePrefill = 200000
	durableRate    = 5000 // live appends per second
	durableWindow  = 64
	// durableInflight caps live appends not yet journaled (0.2 s).
	durableInflight = 1024
	// durableTail is how long a caught-up group follows the live appends.
	durableTail = 500 * time.Millisecond
	// replayTimeout bounds one group's catch-up.
	replayTimeout = 60 * time.Second
)

var durableClearance = label.MustParsePattern("label:conf:bench/dur/ok/*")

// durableInputs are the seeded records: the prefill first, then the live
// appends. A tenth of the prefill carries a label the group is not
// cleared for; live appends are all readable by the group, so every full
// replay filters exactly the prefill's uncleared records.
type durableInputs struct {
	prefill int
	class   []uint8
	lab     []label.Label
	body    [][]byte
}

func newDurableInputs(seed int64, prefill, live int) *durableInputs {
	rnd := rand.New(rand.NewSource(seed))
	text := []byte(randText(rnd, 4096))
	n := prefill + live
	in := &durableInputs{prefill: prefill, class: make([]uint8, n), lab: make([]label.Label, n), body: make([][]byte, n)}
	for i := 0; i < n; i++ {
		r := rnd.Intn(10)
		switch {
		case i < prefill && r == 0:
			in.class[i] = secret
			in.lab[i] = label.Conf("bench/dur/secret/" + strconv.Itoa(rnd.Intn(64)))
		case r < 5:
			in.class[i] = cleared
			in.lab[i] = label.Conf("bench/dur/ok/" + strconv.Itoa(rnd.Intn(64)))
		}
		size := 64 + rnd.Intn(449)
		off := rnd.Intn(len(text) - size)
		in.body[i] = text[off : off+size : off+size]
	}
	return in
}

func (in *durableInputs) event(i int) *event.Event {
	var ev *event.Event
	if in.class[i] == unlabelled {
		ev = event.New(durableTopic, map[string]string{"seq": strconv.Itoa(i)})
	} else {
		ev = event.New(durableTopic, map[string]string{"seq": strconv.Itoa(i)}, in.lab[i])
	}
	ev.Body = in.body[i]
	return ev
}

// durable is a reopened journal with a windowed live producer and
// catching-up group consumers.
type durable struct {
	*backend
	in        *durableInputs
	dir       string
	log       *opLog // live appends
	pub       *broker.Client
	secrets   int // uncleared prefill records
	appended  atomic.Int64
	taps      []atomic.Int32
	replayed  atomic.Int64
	leaks     atomic.Int64
	replayBad atomic.Int64 // duplicate, out of order or missing
	reopen    time.Duration
}

func durableConfig(dir string) broker.ServerConfig {
	return broker.ServerConfig{Durable: []string{durableTopic}, JournalDir: dir, JournalSync: journal.SyncBatch}
}

func durablePolicy() *label.Policy {
	p := label.NewPolicy()
	p.Grant("group-reader", label.Clearance, durableClearance)
	return p
}

// newDurable prefills a journal, closes the server and reopens it on the
// same directory, which runs the recovery scan.
func newDurable(dir string, in *durableInputs, live int) (*durable, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	be, err := newBackend(durablePolicy(), durableConfig(dir))
	if err != nil {
		return nil, err
	}
	d := &durable{in: in, dir: dir, log: newOpLog(live), taps: make([]atomic.Int32, live)}
	for i := 0; i < in.prefill; i++ {
		if in.class[i] == secret {
			d.secrets++
		}
		if err := be.br.Publish("loadgen", in.event(i)); err != nil {
			be.close()
			return nil, fmt.Errorf("prefill %d: %w", i, err)
		}
	}
	be.close()
	if a := be.srv.Stats().DurableAppends; a != uint64(in.prefill) {
		return nil, fmt.Errorf("prefill journaled %d of %d records", a, in.prefill)
	}

	t0 := time.Now()
	if d.backend, err = newBackend(durablePolicy(), durableConfig(dir)); err != nil {
		return nil, err
	}
	d.reopen = time.Since(t0)
	if _, err := d.br.SubscribeTap(durableTopic, d.tap); err != nil {
		d.close()
		return nil, err
	}
	d.pub, err = broker.DialBus(d.srv.Addr(), broker.ClientConfig{Login: "appender",
		PublishWindow: durableWindow, SendTimeout: 10 * time.Second,
		OnError: func(err error) { d.busError("appender", err) }})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// tap runs after the server's journal tap: the live append is done.
func (d *durable) tap(ev *event.Event) {
	i := seqAttr(ev.Attr("seq")) - d.in.prefill
	if i < 0 || i >= len(d.taps) {
		d.replayBad.Add(1)
		return
	}
	d.taps[i].Add(1)
	d.appended.Add(1)
	d.log.complete(i)
}

func (d *durable) close() {
	d.closing.Store(true)
	if d.pub != nil {
		_ = d.pub.Close() // teardown; lost appends show in the taps
	}
	d.backend.close()
	_ = os.RemoveAll(d.dir) // scratch; removed again at exit
}

// replayResult is one group's catch-up and the live tail after it.
type replayResult struct {
	start   int64 // ns since the generator's start
	records int
	elapsed time.Duration
	cpu     time.Duration // process CPU during the catch-up
	// tailFrom and tailTo bound the tail (ns since the generator's
	// start): the group is caught up and follows the live appends.
	tailFrom, tailTo int64
}

// replay catches one new group up from the earliest offset to the head at
// subscribe time, lets it follow the live appends for tail, and checks
// order and clearance of everything it receives.
func (d *durable) replay(group string, tail time.Duration) (replayResult, error) {
	// Acks of deliveries still in flight when the group hangs up fail on
	// the closed connection; only errors before that count.
	var leaving atomic.Bool
	c, err := broker.DialBus(d.srv.Addr(), broker.ClientConfig{Login: "group-reader",
		DurableGroup: group, DurableOffset: "earliest",
		OnError: func(err error) {
			if !leaving.Load() {
				d.busError(group, err)
			}
		}})
	if err != nil {
		return replayResult{}, err
	}
	var sub string
	defer func() {
		leaving.Store(true)
		// A delivery the server's replay feed has in flight when the group
		// hangs up is dropped and counted by the server. That is the
		// group's own departure; a drop while the group listens shows as a
		// gap in what it received.
		if sub != "" {
			_ = c.Unsubscribe(sub) // a failure shows as a dropped delivery
		}
		_ = c.Close() // the group is done; its acks no longer matter
	}()
	head := d.in.prefill + int(d.appended.Load())
	target := head - d.secrets
	var (
		mu     sync.Mutex
		check  = newReplayCheck(d.in.class)
		below  int
		done   = make(chan struct{})
		closed bool
		finish time.Time
	)
	t0, cpu0 := time.Now(), takeSnapshot(0).cpu
	res := replayResult{start: d.log.now(), records: target}
	sub, err = c.Subscribe(durableTopic, "", func(ev *event.Event) {
		i := seqAttr(ev.Attr("seq"))
		if !check.cleared(i, ev.Labels) {
			d.leaks.Add(1)
		}
		ev.Release()
		d.replayed.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if leaving.Load() {
			return
		}
		d.replayBad.Add(check.next(i))
		if i < head {
			below++
		}
		if !closed && (below == target || i >= head) {
			finish, closed = time.Now(), true
			close(done)
		}
	})
	if err != nil {
		return res, err
	}
	select {
	case <-done:
	case <-time.After(replayTimeout):
		return res, fmt.Errorf("group %s: no catch-up within %v", group, replayTimeout)
	}
	res.cpu = takeSnapshot(0).cpu - cpu0
	res.tailFrom = d.log.now()
	time.Sleep(tail)
	res.tailTo = d.log.now()
	mu.Lock()
	defer mu.Unlock()
	res.elapsed = finish.Sub(t0)
	return res, nil
}

// replayCheck checks what one group receives: every record it is
// cleared for, in offset order, once, and none it is not cleared for.
type replayCheck struct {
	class []uint8 // by offset
	last  int     // highest offset received
}

func newReplayCheck(class []uint8) *replayCheck { return &replayCheck{class: class, last: -1} }

// cleared reports whether the group may read record i, delivered with
// labels s; false is a leak.
func (c *replayCheck) cleared(i int, s label.Set) bool {
	return i >= 0 && i < len(c.class) && c.class[i] != secret && !hasUncleared(s, durableClearance)
}

// next takes record i, delivered after the ones before it, and returns
// how many failures it shows: a duplicate or an out-of-order record
// counts one, a gap counts each readable record skipped.
func (c *replayCheck) next(i int) int64 {
	// The next is the first readable record after the last.
	want := c.last + 1
	for want < len(c.class) && c.class[want] == secret {
		want++
	}
	c.last = max(c.last, i)
	switch {
	case i < want:
		return 1
	case i > want:
		return int64(c.readable(want, i))
	}
	return 0
}

// readable counts the records in [from, to) the group is cleared for.
func (c *replayCheck) readable(from, to int) int {
	n := 0
	for i := from; i < to && i < len(c.class); i++ {
		if c.class[i] != secret {
			n++
		}
	}
	return n
}

// hasUncleared reports whether s carries a confidentiality label the
// pattern does not clear.
func hasUncleared(s label.Set, clear label.Pattern) bool {
	for _, l := range s.Sorted() {
		if l.Kind() == label.Confidentiality && !clear.Matches(l) {
			return true
		}
	}
	return false
}

func runDurable(e *env) (*report, error) {
	measure := e.measure()
	gc := genConfig{rate: durableRate * e.scale, measure: measure, maxInflight: durableInflight,
		marks: windows(measure)}
	live := gc.opCount()
	in := newDurableInputs(e.seed, e.scaled(durablePrefill, 1000), live)
	d, setups, err := timedSetups(e, func() (*durable, error) {
		return newDurable(filepath.Join(e.dir, "journal"), in, live)
	}, (*durable).close)
	if err != nil {
		return nil, err
	}
	defer d.close()

	var snaps []sysSnap
	var replayedAt []int64
	gc.onMark = func(int) {
		snaps = append(snaps, d.snap())
		replayedAt = append(replayedAt, d.replayed.Load())
	}
	// Groups catch up one after another while the live producer appends;
	// after each catch-up the group follows the live appends for a
	// while, and the live appends' latency is measured there, so that it
	// reads the journal's write path rather than how the scheduler shares
	// two saturated cores.
	tail := min(durableTail, measure/8)
	d.log.base = time.Now() // the groups stamp their times against it
	stop := make(chan struct{})
	var results []replayResult
	var replayErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 0; ; g++ {
			select {
			case <-stop:
				return
			default:
			}
			r, err := d.replay("g"+strconv.Itoa(g), tail)
			if err != nil {
				replayErr = err
				return
			}
			results = append(results, r)
		}
	}()
	st := runOpenLoop(d.log, gc, func(i int) error { return d.pub.Publish(in.event(in.prefill + i)) })
	close(stop)
	wg.Wait()
	if err := d.pub.Flush(); err != nil {
		st.sendErrors++
	}
	waitDone(d.log, drainTimeout)
	if replayErr != nil {
		return nil, replayErr
	}

	ss := d.srv.Stats()
	rep := &report{leaks: d.leaks.Load(), attempted: int64(live)}
	for _, r := range results {
		rep.attempted += int64(r.records)
	}
	// Dropped deliveries are the groups' departures (see replay); drops
	// while a group listened are counted in replayBad as gaps.
	rep.failed = d.systemFailures(false) + st.sendErrors + d.replayBad.Load()
	for i := range d.taps {
		if d.taps[i].Load() != 1 {
			rep.failed++
		}
	}
	// Every full replay filters exactly the prefill's uncleared records.
	if want := uint64(len(results) * d.secrets); ss.ReplayFiltered != want {
		rep.failed++
		rep.notes = append(rep.notes, fmt.Sprintf("ReplayFiltered %d, want %d", ss.ReplayFiltered, want))
	}
	if ss.DurableAppends != uint64(d.appended.Load()) {
		rep.failed++
	}

	// A group counts when it started in the measured window.
	var lats, cpus, eps []float64
	for _, r := range results {
		if r.start < st.snaps[0].at || r.start >= st.snaps[len(st.snaps)-1].at {
			continue
		}
		var lat []float64
		for i := 0; i < live; i++ {
			if due := d.log.due[i]; due >= r.tailFrom && due < r.tailTo {
				if done := d.log.done[i].Load(); done > 0 {
					lat = append(lat, float64(done-due)/1e3)
				}
			}
		}
		rep.samples += len(lat)
		if len(lat) > 0 {
			lats = append(lats, median(lat))
		}
		cpus = append(cpus, float64(r.cpu.Nanoseconds())/1e3/float64(r.records))
		eps = append(eps, float64(r.records)/r.elapsed.Seconds())
	}
	rep.notes = append(rep.notes, fmt.Sprintf("groups=%d measured=%d prefill=%d uncleared=%d reopen=%v dropped at departure=%d",
		len(results), len(eps), in.prefill, d.secrets, d.reopen, ss.DroppedDeliveries),
		fmt.Sprintf("per-group replay_eps %.0f cpu_us_per_op %.2f", eps, cpus))
	if len(eps) == 0 {
		return nil, fmt.Errorf("no group caught up in the measured window")
	}
	cpu := median(cpus)
	rep.setEndToEnd(setups, median(lats), cpu, median(eps))
	if !e.trace {
		return rep, nil
	}

	// Nothing is traced while the groups catch up: the per-layer timings
	// below run after the measured window, on the run's own records, so a
	// traced run measures the same system as an untraced one.
	rw := splitWindows(d.log, live, st, false)
	wt := merge(rw.all)
	wt.ops = replayedAt[len(replayedAt)-1] - replayedAt[0]
	lv := baseLayers(rep, rw, st, wt)
	oc := brokerLayers(wt, snaps[0], snaps[len(snaps)-1], lv)
	lv["journal.replay_eps"] = median(eps)
	if err := journalLayers(e, d, lv); err != nil {
		return nil, err
	}
	const sample = 2000
	ct, err := timeCodec(sample, func(i int) *event.Event { return in.event(i * in.prefill / sample) },
		d.br.Policy().PrivilegesOf("group-reader"), nil)
	if err != nil {
		return nil, err
	}
	labelled := 0.0
	for i := 0; i < in.prefill; i++ {
		if in.class[i] != unlabelled {
			labelled++
		}
	}
	labelled /= float64(in.prefill)
	calls := perOpCalls{
		sends:      oc.sendBuilds,
		wireBuilds: oc.wireBuilds,
		encodes:    1, // each replayed record is spliced and sent once
		decodes:    1 + oc.sendBuilds,
		// Replay re-checks clearance of every labelled record and parses
		// each new label header (consecutive records rarely share one).
		checks: labelled,
		parses: labelled,
	}
	attributed := codecLayers(ct, calls, cpu, lv)
	attributed += lv["journal.read_ns"]/1e3 + lv["journal.append_ns"]/1e3*oc.sendBuilds
	// No spans were recorded, so tracing cost nothing here.
	lv["trace.overhead_pct"] = 0
	lv["trace.unattributed_us_per_op"] = cpu - attributed
	rep.notes = append(rep.notes, "trace.overhead_pct is 0: durable-catchup records no spans during its run")
	rep.layers = lv.metrics()
	return rep, nil
}

// journalLayers times journal.Open on a copy of the run's journal, Read
// over its records and Append of those records under SyncBatch.
func journalLayers(e *env, d *durable, lv layerValues) error {
	src, err := topicDir(d.dir)
	if err != nil {
		return err
	}
	cp := filepath.Join(e.dir, "journal-copy")
	if err := copyDir(src, cp); err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	t0 := time.Now()
	j, err := journal.Open(cp, journal.Options{Sync: journal.SyncBatch})
	if err != nil {
		return err
	}
	lv["journal.open_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	n := int(j.NextOffset())
	if n > 20000 {
		n = 20000
	}
	recs := make([]journal.Record, n)
	t0 = time.Now()
	for i := range recs {
		if err := j.Read(int64(i), &recs[i]); err != nil {
			_ = j.Close()
			return fmt.Errorf("journal read %d: %w", i, err)
		}
	}
	lv["journal.read_ns"] = perCall(t0, n)
	if err := j.Close(); err != nil {
		return err
	}

	ap := filepath.Join(e.dir, "journal-append")
	defer os.RemoveAll(ap)
	j, err = journal.Open(ap, journal.Options{Sync: journal.SyncBatch})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := range recs {
		if _, err := j.Append(&recs[i]); err != nil {
			_ = j.Close()
			return fmt.Errorf("journal append: %w", err)
		}
	}
	lv["journal.append_ns"] = perCall(t0, n)
	return j.Close()
}

// topicDir is the one topic journal directory under a journal root.
func topicDir(root string) (string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if e.IsDir() {
			return filepath.Join(root, e.Name()), nil
		}
	}
	return "", fmt.Errorf("no topic journal under %s", root)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
