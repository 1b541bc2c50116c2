package event

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// The map-based event codec the single-pass encoder and decoder are
// checked against: conformance tests, fuzzers and equivalence tests
// compare SendImage, WireImage and UnmarshalView with these references.

// marshalHeaders flattens the event into STOMP headers and a body: the
// destination, every attribute and the label header, with the
// destination overwriting a same-named attribute.
func marshalHeaders(e *Event) (map[string]string, []byte, error) {
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	headers := make(map[string]string, len(e.Attrs)+2)
	for k, v := range e.Attrs {
		headers[k] = v
	}
	headers[HeaderDestination] = e.Topic
	if !e.Labels.IsEmpty() {
		headers[HeaderLabels] = e.LabelHeader()
	}
	return headers, e.Body, nil
}

// unmarshalHeaders reconstructs an event from a STOMP header map and a
// body, skipping transport headers.
func unmarshalHeaders(headers map[string]string, body []byte) (*Event, error) {
	e := &Event{Topic: headers[HeaderDestination]}
	if e.Topic == "" {
		return nil, fmt.Errorf("event: missing %s header", HeaderDestination)
	}
	for k, v := range headers {
		if k == HeaderLabels {
			labels, err := label.ParseSet(v)
			if err != nil {
				return nil, fmt.Errorf("event: bad label header: %w", err)
			}
			e.Labels = labels
		}
		if skippedHeader(k) {
			continue
		}
		if e.Attrs == nil {
			e.Attrs = make(map[string]string)
		}
		e.Attrs[k] = v
	}
	if len(body) > 0 {
		e.Body = body
	}
	return e, nil
}

// legacySendWire is the SEND reference: marshalHeaders into a map, a SEND
// frame built from it (with the receipt set in the map, when non-empty)
// and encoded by Encoder.Encode.
func legacySendWire(t testing.TB, e *Event, receipt string) []byte {
	t.Helper()
	headers, body, err := marshalHeaders(e)
	if err != nil {
		t.Fatalf("marshalHeaders: %v", err)
	}
	f := &stomp.Frame{Command: stomp.CmdSend, Headers: headers, Body: body}
	if receipt != "" {
		f.SetHeader(stomp.HdrReceipt, receipt)
	}
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.Encode(&buf, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// legacyMessageImage is the MESSAGE reference: marshalHeaders into a map,
// whose keys are sorted and written through an ImageBuilder, leaving the
// subscription and message-id routing headers to EncodeImage.
func legacyMessageImage(t testing.TB, e *Event) *stomp.WireImage {
	t.Helper()
	headers, body, err := marshalHeaders(e)
	if err != nil {
		t.Fatalf("marshalHeaders: %v", err)
	}
	keys := make([]string, 0, len(headers))
	for k := range headers {
		if k != stomp.HdrSubscription && k != stomp.HdrMessageID && k != stomp.HdrContentLength {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	b := stomp.NewImageBuilder(stomp.CmdMessage, 64)
	for _, k := range keys {
		b.Header(k, headers[k])
	}
	img := b.Finish(body)
	return &img
}

// withoutTransportAttrs returns a copy of e without the attributes the
// encoder drops (those named like transport headers), or e itself when it
// has none.
func withoutTransportAttrs(e *Event) *Event {
	var attrs map[string]string
	for k, v := range e.Attrs {
		if !skippedHeader(k) {
			if attrs == nil {
				attrs = make(map[string]string, len(e.Attrs))
			}
			attrs[k] = v
		}
	}
	if len(attrs) == len(e.Attrs) {
		return e
	}
	return &Event{Topic: e.Topic, Body: e.Body, Labels: e.Labels, Attrs: attrs}
}
