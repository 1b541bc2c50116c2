package broker

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// TestPublishWindowedOrderingAndFlush: a windowed producer pipelines
// receipt-tracked publishes; the Flush barrier confirms them all, and the
// subscriber observes every event in publish order.
func TestPublishWindowedOrderingAndFlush(t *testing.T) {
	_, srv := startNetBroker(t)
	consumer := dialBus(t, srv.Addr(), "cleared")

	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer",
		PublishWindow: 8,
		SendTimeout:   5 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { _ = producer.Close() })

	var mu sync.Mutex
	var seqs []int
	if _, err := consumer.Subscribe("/win/out", "", func(ev *event.Event) {
		n, _ := strconv.Atoi(ev.Attr("seq"))
		mu.Lock()
		seqs = append(seqs, n)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	const total = 200
	for i := 0; i < total; i++ {
		ev := event.New("/win/out", map[string]string{"seq": strconv.Itoa(i)},
			label.Conf("ecric.org.uk/mdt/7"))
		if err := producer.Publish(ev); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	if err := producer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	waitFor(t, "all windowed publishes delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == total
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range seqs {
		if n != i {
			t.Fatalf("delivery %d carries seq %d; want publish order preserved", i, n)
		}
	}
}

// TestPublishWindowSurfacesBrokerError: a broker rejection mid-window
// (here an integrity label the principal may not endorse, which makes the
// server error the connection) must surface through the Flush barrier and
// make later publishes fail fast — never be swallowed.
func TestPublishWindowSurfacesBrokerError(t *testing.T) {
	_, srv := startNetBroker(t)
	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer", // has no endorsement privilege
		PublishWindow: 4,
		SendTimeout:   2 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { producer.AbruptClose() }) // the window is failed; no graceful barrier

	forged := event.New("/t", nil, label.Int("ecric.org.uk/mdt"))
	if err := producer.Publish(forged); err != nil {
		// Accepted asynchronously or refused already — both are fine, as
		// long as the failure is reported by the barrier below.
		t.Logf("Publish returned synchronously: %v", err)
	}
	if err := producer.Flush(); err == nil {
		t.Fatal("Flush swallowed the broker rejection; want an error")
	}
	rejected := event.New("/t", nil)
	if err := producer.Publish(rejected); err == nil {
		t.Fatal("Publish after window failure succeeded; want sticky fail-fast error")
	}
	// The fail-fast rejection proved the event never reached the wire, so
	// it must stay mutable for annotation and republish elsewhere.
	//lint:ignore frozenmutate the fail-fast rejection left the event unfrozen; staying mutable is the property under test
	if err := rejected.Set("retry", "1"); err != nil {
		t.Errorf("fail-fast-rejected event is frozen: %v", err)
	}
	// An event with a transport-named attribute (dropped at encode) must
	// honour the sticky error too: a failed window fails every publish.
	collide := event.New("/t", map[string]string{"ack": "client"})
	if err := producer.Publish(collide); err == nil {
		t.Fatal("Publish of a transport-named attr bypassed the window's sticky error")
	}
	if err := producer.Flush(); err == nil {
		t.Fatal("second Flush lost the sticky error")
	}
}

// TestPublishWindowBoundedInflight: a continuously publishing window must
// not grow its receipt FIFO with total publishes — settled receipts are
// compacted away, keeping memory bounded by the window size.
func TestPublishWindowBoundedInflight(t *testing.T) {
	_, srv := startNetBroker(t)
	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer",
		PublishWindow: 8,
		SendTimeout:   5 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { _ = producer.Close() })

	for i := 0; i < 500; i++ { // no Flush: steady-state pipelining
		if err := producer.Publish(event.New("/bounded", nil)); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	win := producer.shards[producer.pubBase].win
	win.mu.Lock()
	length, head := len(win.inflight), win.head
	win.mu.Unlock()
	if outstanding := length - head; outstanding > win.size {
		t.Errorf("window holds %d outstanding receipts, want <= %d", outstanding, win.size)
	}
	if length > 2*win.size {
		t.Errorf("inflight FIFO grew to %d entries over 500 publishes, want <= %d (compacted)",
			length, 2*win.size)
	}
	if err := producer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestPublishFreezeNoMutation pins the publish-side aliasing contract:
// Publish freezes the caller's event but must not otherwise mutate any
// caller-visible state — no attribute map rewrite, no body copy, no
// transport headers leaking into Attrs — for plain events and for events
// whose transport-named attributes the encoder drops.
func TestPublishFreezeNoMutation(t *testing.T) {
	_, srv := startNetBroker(t)
	producer := dialBus(t, srv.Addr(), "producer")

	check := func(name string, ev *event.Event) {
		t.Helper()
		attrsBefore := make(map[string]string, len(ev.Attrs))
		for k, v := range ev.Attrs {
			attrsBefore[k] = v
		}
		attrsPtr := reflect.ValueOf(ev.Attrs).Pointer()
		bodyBefore := ev.Body
		labelsBefore := ev.Labels

		if err := producer.Publish(ev); err != nil {
			t.Fatalf("%s: Publish: %v", name, err)
		}
		//lint:ignore frozenmutate probing the freeze contract: Set after Publish must fail with ErrFrozen
		if err := ev.Set("late", "write"); !errors.Is(err, event.ErrFrozen) {
			t.Errorf("%s: Set after Publish = %v, want ErrFrozen", name, err)
		}
		if reflect.ValueOf(ev.Attrs).Pointer() != attrsPtr {
			t.Errorf("%s: Publish replaced the attribute map", name)
		}
		if !reflect.DeepEqual(ev.Attrs, attrsBefore) {
			t.Errorf("%s: Publish mutated attrs: %v, want %v", name, ev.Attrs, attrsBefore)
		}
		if len(bodyBefore) > 0 && &ev.Body[0] != &bodyBefore[0] {
			t.Errorf("%s: Publish replaced the body", name)
		}
		if !ev.Labels.Equal(labelsBefore) {
			t.Errorf("%s: Publish changed the label set", name)
		}
	}

	plain := event.New("/patient_report",
		map[string]string{"patient_id": "1", "type": "cancer"},
		label.Conf("ecric.org.uk/mdt/7"))
	plain.Body = []byte(`{"summary": "report"}`)
	check("plain", plain)

	// "receipt" is a transport header name: the encoder leaves it off the
	// wire image, and that drop must never reach the event's own attrs.
	dropped := event.New("/patient_report",
		map[string]string{"receipt": "app-data", "type": "cancer"},
		label.Conf("ecric.org.uk/mdt/7"))
	check("transport-named attr", dropped)
}

// TestPublishTransportAttrFallback: events whose attributes are named like
// transport headers still publish, the encoder drops those attributes —
// the event's topic is the only destination header on the wire — and they
// do not reappear on delivery.
func TestPublishTransportAttrFallback(t *testing.T) {
	_, srv := startNetBroker(t)
	consumer := dialBus(t, srv.Addr(), "cleared")
	producer := dialBus(t, srv.Addr(), "producer")

	received := make(chan *event.Event, 4)
	if _, err := consumer.Subscribe("/real", "", func(ev *event.Event) {
		received <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	evil := make(chan *event.Event, 4)
	if _, err := consumer.Subscribe("/evil", "", func(ev *event.Event) {
		evil <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	}); err != nil {
		t.Fatalf("Subscribe /evil: %v", err)
	}

	ev := event.New("/real", map[string]string{"destination": "/evil", "k": "v"})
	if err := producer.Publish(ev); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	select {
	case got := <-received:
		if got.Topic != "/real" {
			t.Errorf("delivered on topic %q, want /real", got.Topic)
		}
		if got.Attr("k") != "v" {
			t.Errorf("attr k = %q, want v", got.Attr("k"))
		}
		if _, ok := got.Get("destination"); ok {
			t.Error("transport-named attribute leaked into the delivered event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event with transport-named attribute never delivered")
	}
	select {
	case <-evil:
		t.Fatal("event delivered to the attribute's destination; the topic must win")
	case <-time.After(50 * time.Millisecond):
	}
}

// recordingBroker is a raw STOMP endpoint in the style of discardBroker:
// it completes the CONNECT handshake, answers every receipt request, and
// reports the header lines of each SEND frame exactly as they arrived on
// the wire, repeated keys included.
func recordingBroker(t testing.TB) (string, <-chan [][2]string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	// Room for every SEND a test publishes, so a connection goroutine
	// never blocks on a test that has stopped reading.
	sends := make(chan [][2]string, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go recordSends(conn, sends)
		}
	}()
	return ln.Addr().String(), sends
}

// recordSends serves one recordingBroker connection.
func recordSends(conn net.Conn, sends chan<- [][2]string) {
	defer conn.Close()
	dec := stomp.NewDecoder(conn)
	if _, err := dec.DecodeView(); err != nil { // CONNECT
		return
	}
	if _, err := conn.Write([]byte("CONNECTED\nsession:1\nversion:1.1\ncontent-length:0\n\n\x00")); err != nil {
		return
	}
	for {
		v, err := dec.DecodeView()
		if err != nil {
			return
		}
		if v.Command == stomp.CmdSend {
			hdrs := make([][2]string, v.Headers.Len())
			for i := range hdrs {
				hdrs[i] = [2]string{v.Headers.Key(i), v.Headers.Value(i)}
			}
			sends <- hdrs
		}
		if r, ok := v.Headers.Get(stomp.HdrReceipt); ok {
			if _, err := conn.Write([]byte("RECEIPT\nreceipt-id:" + r + "\n\n\x00")); err != nil {
				return
			}
		}
	}
}

// TestPublishDropsTransportNamedAttrs: attributes named like transport
// headers never reach the wire. A "receipt: rcpt-1" attribute would
// otherwise make the broker answer with a receipt id from the client's
// own rcpt-N scheme, confirming an unrelated pending publish, and ack,
// id, selector and transaction attributes would be read as transport
// metadata. The SEND carries only the client's own receipt request, on
// receipt-tracked publishes, and the event's MESSAGE image carries none.
func TestPublishDropsTransportNamedAttrs(t *testing.T) {
	forged := []string{stomp.HdrReceipt, "ack", stomp.HdrID, stomp.HdrSelector, "transaction"}
	for _, tc := range []struct {
		name     string
		cfg      ClientConfig
		receipts int
	}{
		{"fire-and-forget", ClientConfig{Login: "producer"}, 0},
		{"windowed", ClientConfig{Login: "producer", PublishWindow: 4, SendTimeout: 5 * time.Second}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, sends := recordingBroker(t)
			c, err := DialBus(addr, tc.cfg)
			if err != nil {
				t.Fatalf("DialBus: %v", err)
			}
			defer func() { _ = c.Close() }()

			ev := event.New("/t", map[string]string{
				stomp.HdrReceipt: "rcpt-1", "ack": "client", stomp.HdrID: "sub-0",
				stomp.HdrSelector: "k = 'v'", "transaction": "tx-1", "k": "v",
			})
			if err := c.Publish(ev); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			var hdrs [][2]string
			select {
			case hdrs = <-sends:
			case <-time.After(5 * time.Second):
				t.Fatal("SEND never reached the sink")
			}
			counts := make(map[string]int, len(hdrs))
			for _, h := range hdrs {
				counts[h[0]]++
			}
			for _, k := range forged[1:] {
				if counts[k] != 0 {
					t.Errorf("SEND carries an attribute-sourced %s header: %q", k, hdrs)
				}
			}
			if counts[stomp.HdrReceipt] != tc.receipts {
				t.Errorf("SEND carries %d receipt headers, want %d (the client's own): %q",
					counts[stomp.HdrReceipt], tc.receipts, hdrs)
			}
			if counts["k"] != 1 {
				t.Errorf("ordinary attribute lost from SEND: %q", hdrs)
			}

			img, err := ev.WireImage()
			if err != nil {
				t.Fatalf("WireImage: %v", err)
			}
			v, err := stomp.NewDecoder(bytes.NewReader(img.Bytes())).DecodeView()
			if err != nil {
				t.Fatalf("DecodeView of MESSAGE image: %v", err)
			}
			for _, k := range forged {
				if _, ok := v.Headers.Get(k); ok {
					t.Errorf("MESSAGE image carries an attribute-sourced %s header: %q", k, img.Bytes())
				}
			}
		})
	}
}

// TestPublishShardsTopicPinning: with PublishShards, publishes to one
// topic stay on one connection, so per-topic order is preserved even
// though topics spread across connections.
func TestPublishShardsTopicPinning(t *testing.T) {
	_, srv := startNetBroker(t)
	consumer := dialBus(t, srv.Addr(), "cleared")

	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer",
		PublishShards: 3,
		PublishWindow: 4,
		SendTimeout:   5 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { _ = producer.Close() })
	// One subscription connection plus three dedicated publish ones.
	if len(producer.shards) != 4 {
		t.Fatalf("dialled %d connections, want 4", len(producer.shards))
	}

	const topics, perTopic = 3, 100
	var mu sync.Mutex
	seqs := make([][]int, topics)
	for i := 0; i < topics; i++ {
		i := i
		if _, err := consumer.Subscribe(fmt.Sprintf("/pin/%d", i), "", func(ev *event.Event) {
			n, _ := strconv.Atoi(ev.Attr("seq"))
			mu.Lock()
			seqs[i] = append(seqs[i], n)
			mu.Unlock()
		}); err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
	}

	for n := 0; n < perTopic; n++ {
		for i := 0; i < topics; i++ {
			ev := event.New(fmt.Sprintf("/pin/%d", i),
				map[string]string{"seq": strconv.Itoa(n)})
			if err := producer.Publish(ev); err != nil {
				t.Fatalf("Publish topic %d seq %d: %v", i, n, err)
			}
		}
	}
	if err := producer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	waitFor(t, "all pinned publishes delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < topics; i++ {
			if len(seqs[i]) != perTopic {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < topics; i++ {
		for n, got := range seqs[i] {
			if got != n {
				t.Fatalf("topic %d delivery %d carries seq %d; want per-topic order", i, n, got)
			}
		}
	}
}

// TestPublishEncodeOnce: fan-in republish of one event must reuse the
// memoised SEND image — one encode, three deliveries.
func TestPublishEncodeOnce(t *testing.T) {
	_, srv := startNetBroker(t)
	consumer := dialBus(t, srv.Addr(), "cleared")
	producer := dialBus(t, srv.Addr(), "producer")

	received := make(chan *event.Event, 8)
	if _, err := consumer.Subscribe("/once", "", func(ev *event.Event) {
		received <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	ev := event.New("/once", map[string]string{"k": "v"}, label.Conf("ecric.org.uk/mdt/7"))
	before := event.SendImageBuilds()
	for i := 0; i < 3; i++ {
		if err := producer.Publish(ev); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	if got := event.SendImageBuilds() - before; got != 1 {
		t.Errorf("SendImageBuilds delta = %d over 3 publishes of one event, want 1", got)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
}
