package event

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// sendConformanceCorpus returns the canonical wire corpus: every event
// shape the image encoder must encode byte-identically to the map-based
// references — labels, attributes needing escaping, empty keys and values,
// binary bodies, keys that sort around the destination and receipt
// headers, and attributes named like transport headers, which the encoder
// drops.
func sendConformanceCorpus() []struct {
	name string
	ev   *Event
} {
	withBody := func(e *Event, body []byte) *Event {
		e.Body = body
		return e
	}
	return []struct {
		name string
		ev   *Event
	}{
		{"attr-free unlabelled", New("/t", nil)},
		{"attr-free labelled", withBody(
			New("/patient_report", nil,
				label.Conf("ecric.org.uk/mdt/7"), label.Conf("a.org/x"), label.Int("b.org/y")),
			[]byte(`{"record": true}`))},
		{"attrs and labels", withBody(
			New("/patient_report", map[string]string{
				"patient_id": "33812769", "type": "cancer",
			}, label.Conf("ecric.org.uk/mdt/7")),
			[]byte(`{"summary": "report", "mdt": 7}`))},
		{"escaped attr key and value", New("/t", map[string]string{
			"tricky:key": "line1\nline2:with\\slash\rcr",
		})},
		{"empty attr value and empty attr key", New("/t", map[string]string{
			"empty": "", "": "anonymous",
		})},
		{"binary body with NULs", withBody(
			New("/t", map[string]string{"k": "v"}),
			[]byte{0x01, 0x00, 0x02, 0x00, 0x03})},
		{"keys sorting around transport headers", New("/t", map[string]string{
			"destinatio": "before", "destinatioz": "after",
			"rec": "before-receipt", "receipt1": "after-receipt", "zz": "last",
		})},
		{"unicode topic and values", withBody(
			New("/département/7", map[string]string{"patient": "Zoë"}, label.Conf("ecric.org.uk/é")),
			[]byte("café"))},
		{"empty body labelled", New("/t", nil, label.Conf("a.org/x"))},
		{"transport-named attrs dropped", New("/t", map[string]string{
			"destination": "/evil", "receipt": "rcpt-1", "receipt-id": "rcpt-2",
			"subscription": "sub-0", "message-id": "m-0", "content-length": "99",
			"id": "sub-1", "ack": "client", "selector": "k = 'v'",
			"transaction": "tx-1", "k": "v",
		}, label.Conf("a.org/x"))},
	}
}

// TestSendEncodingConformance pins both wire images to the map-based
// references for every corpus event (see checkWireImages).
func TestSendEncodingConformance(t *testing.T) {
	for _, tc := range sendConformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			tc.ev.Freeze()
			checkWireImages(t, tc.ev)
		})
	}
}

// checkWireImages pins a frozen, valid event's images to the map-based
// references for the event minus its transport-named attributes: SEND
// with and without a spliced receipt, and MESSAGE. Each image must also
// decode, through the view path the receiving side runs, back to that
// same event.
func checkWireImages(t testing.TB, ev *Event) {
	t.Helper()
	want := withoutTransportAttrs(ev)
	send, err := ev.SendImage()
	if err != nil {
		t.Fatalf("SendImage rejected a valid event: %v", err)
	}
	var enc stomp.Encoder
	for _, receipt := range []string{"", "rcpt-42"} {
		var got bytes.Buffer
		if err := enc.EncodeSendImage(&got, send, receipt); err != nil {
			t.Fatalf("EncodeSendImage: %v", err)
		}
		if ref := legacySendWire(t, want, receipt); !bytes.Equal(got.Bytes(), ref) {
			t.Fatalf("receipt=%q: SEND bytes differ from the reference:\nimage: %q\nref:   %q",
				receipt, got.Bytes(), ref)
		}
		checkDecodes(t, got.Bytes(), stomp.CmdSend, receipt, want)
	}

	msg, err := ev.WireImage()
	if err != nil {
		t.Fatalf("WireImage rejected a valid event: %v", err)
	}
	if ref := legacyMessageImage(t, want); !bytes.Equal(msg.Bytes(), ref.Bytes()) || msg.Split() != ref.Split() {
		t.Fatalf("MESSAGE image differs from the reference:\nimage: %q (split %d)\nref:   %q (split %d)",
			msg.Bytes(), msg.Split(), ref.Bytes(), ref.Split())
	}
	var got bytes.Buffer
	if err := enc.EncodeImage(&got, msg, "sub-1", "m-1-", 1); err != nil {
		t.Fatalf("EncodeImage: %v", err)
	}
	checkDecodes(t, got.Bytes(), stomp.CmdMessage, "", want)
}

// checkDecodes decodes one frame of wire bytes through DecodeView and
// UnmarshalView and requires the given command and receipt header and an
// event equal to want.
func checkDecodes(t testing.TB, wire []byte, command, receipt string, want *Event) {
	t.Helper()
	v, err := stomp.NewDecoder(bytes.NewReader(wire)).DecodeView()
	if err != nil {
		t.Fatalf("DecodeView of %s image: %v", command, err)
	}
	if v.Command != command {
		t.Fatalf("decoded command %q, want %s", v.Command, command)
	}
	if r := v.Headers.Header(stomp.HdrReceipt); r != receipt {
		t.Fatalf("%s: decoded receipt %q, want %q", command, r, receipt)
	}
	back, err := UnmarshalView(&v.Headers, v.Body, nil)
	if err != nil {
		t.Fatalf("UnmarshalView of %s image: %v", command, err)
	}
	if back.Topic != want.Topic || !back.Labels.Equal(want.Labels) ||
		!reflect.DeepEqual(back.Attrs, want.Attrs) || !bytes.Equal(back.Body, want.Body) {
		t.Fatalf("%s round trip changed the event:\nwant: %v\ngot:  %v", command, want, back)
	}
}

// TestSendImageMemoised pins the encode-once property of the producer
// path: repeated SendImage calls return the same image, the build counter
// moves exactly once, and the memo is independent of the MESSAGE-side
// WireImage memo.
func TestSendImageMemoised(t *testing.T) {
	ev := New("/t", map[string]string{"k": "v"}, label.Conf("a.org/x"))
	ev.Body = []byte("payload")
	ev.Freeze()

	before := SendImageBuilds()
	img1, err := ev.SendImage()
	if err != nil {
		t.Fatalf("SendImage: %v", err)
	}
	img2, err := ev.SendImage()
	if err != nil {
		t.Fatalf("SendImage (memo): %v", err)
	}
	if img1 != img2 {
		t.Error("SendImage rebuilt on second call; want shared memo")
	}
	if got := SendImageBuilds() - before; got != 1 {
		t.Errorf("SendImageBuilds delta = %d, want 1", got)
	}

	// The MESSAGE image is a separate memo with a different command line.
	msg, err := ev.WireImage()
	if err != nil {
		t.Fatalf("WireImage: %v", err)
	}
	if !bytes.HasPrefix(msg.Prefix(), []byte("MESSAGE\n")) {
		t.Errorf("WireImage prefix = %q, want MESSAGE frame", msg.Prefix())
	}
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.EncodeSendImage(&buf, img1, ""); err != nil {
		t.Fatalf("EncodeSendImage: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("SEND\n")) {
		t.Errorf("SendImage wire = %q, want SEND frame", buf.Bytes())
	}
}

// TestSendImageErrorMemoised: an event that cannot marshal reports the
// error on every call without re-encoding or bumping the build counter.
// An attribute in the reserved namespace is such an error, not a drop.
func TestSendImageErrorMemoised(t *testing.T) {
	reserved := &Event{Topic: "/t", Attrs: map[string]string{ReservedPrefix + "labels": "x"}}
	reserved.Freeze()
	if _, err := reserved.SendImage(); !errors.Is(err, ErrReservedAttribute) {
		t.Errorf("SendImage with reserved attr: err = %v, want ErrReservedAttribute", err)
	}

	ev := &Event{Topic: ""}
	ev.Freeze()
	before := SendImageBuilds()
	if _, err := ev.SendImage(); err == nil {
		t.Fatal("SendImage accepted an empty topic")
	}
	img, err := ev.SendImage()
	if err == nil || img != nil {
		t.Fatalf("memoised error lost: img=%v err=%v", img, err)
	}
	if got := SendImageBuilds() - before; got != 0 {
		t.Errorf("failed SendImage bumped build counter by %d", got)
	}
}

// TestCloneDropsSendImageMemo guards the federation bridge pattern for
// the SEND memo, like the MESSAGE-image test: Clone → relabel → the clone
// must encode its own image, not the original's.
func TestCloneDropsSendImageMemo(t *testing.T) {
	src := New("/t", nil, label.Conf("east.nhs.uk/agg"))
	src.Freeze()
	if _, err := src.SendImage(); err != nil {
		t.Fatalf("SendImage: %v", err)
	}

	out := src.Clone()
	out.Labels = label.NewSet(label.Conf("west.nhs.uk/agg"))
	out.Freeze()
	img, err := out.SendImage()
	if err != nil {
		t.Fatalf("clone SendImage: %v", err)
	}
	if !bytes.Contains(img.Prefix(), []byte("west.nhs.uk/agg")) {
		t.Errorf("clone image carries stale labels: %q", img.Prefix())
	}
}
