package event

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"safeweb/internal/label"
)

func TestNewAndAccessors(t *testing.T) {
	attrs := map[string]string{"patient_id": "33812769", "type": "cancer"}
	e := New("/patient_report", attrs, label.Conf("ecric.org.uk/mdt/7"))

	if e.Topic != "/patient_report" {
		t.Errorf("Topic = %q", e.Topic)
	}
	if v, ok := e.Get("patient_id"); !ok || v != "33812769" {
		t.Errorf("Get(patient_id) = %q, %v", v, ok)
	}
	if v := e.Attr("missing"); v != "" {
		t.Errorf("Attr(missing) = %q", v)
	}
	if !e.Labels.Contains(label.Conf("ecric.org.uk/mdt/7")) {
		t.Error("label missing")
	}

	// New copies the attribute map.
	attrs["patient_id"] = "mutated"
	if e.Attr("patient_id") != "33812769" {
		t.Error("New aliased caller's map")
	}
}

func TestSetReservedAttribute(t *testing.T) {
	e := New("/t", nil)
	if err := e.Set("x-safeweb-labels", "evil"); !errors.Is(err, ErrReservedAttribute) {
		t.Errorf("Set reserved = %v, want ErrReservedAttribute", err)
	}
	if err := e.Set("ok", "v"); err != nil || e.Attr("ok") != "v" {
		t.Errorf("Set ok failed: %v", err)
	}
}

func TestValidate(t *testing.T) {
	if err := New("/t", map[string]string{"a": "1"}).Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
	if err := (&Event{}).Validate(); err == nil {
		t.Error("empty topic accepted")
	}
	bad := &Event{Topic: "/t", Attrs: map[string]string{"x-safeweb-labels": "v"}}
	if err := bad.Validate(); !errors.Is(err, ErrReservedAttribute) {
		t.Errorf("reserved attr accepted: %v", err)
	}
}

func TestClone(t *testing.T) {
	e := New("/t", map[string]string{"k": "v"}, label.Conf("a"))
	e.Body = []byte("payload")

	c := e.Clone()
	c.Attrs["k"] = "changed"
	c.Body[0] = 'X'

	if e.Attrs["k"] != "v" {
		t.Error("Clone shares attribute map")
	}
	if !bytes.Equal(e.Body, []byte("payload")) {
		t.Error("Clone shares body")
	}
	if !c.Labels.Equal(e.Labels) {
		t.Error("Clone lost labels")
	}

	// Clone of a minimal event keeps nil fields nil.
	min := (&Event{Topic: "/t"}).Clone()
	if min.Attrs != nil || min.Body != nil {
		t.Error("Clone invented fields")
	}
}

func TestDeriveComposesLabels(t *testing.T) {
	p1 := label.Conf("patient/1")
	p2 := label.Conf("patient/2")
	i := label.Int("mdt")

	e1 := New("/a", nil, p1, i)
	e2 := New("/b", nil, p2)

	d := Derive("/out", map[string]string{"n": "2"}, []byte("b"), e1, e2)
	if d.Topic != "/out" || d.Attr("n") != "2" || string(d.Body) != "b" {
		t.Errorf("Derive lost data: %v", d)
	}
	if !d.Labels.Contains(p1) || !d.Labels.Contains(p2) {
		t.Error("conf labels not sticky across Derive")
	}
	if d.Labels.Contains(i) {
		t.Error("integrity label survived non-unanimous derivation")
	}

	// Single-source derivation keeps integrity.
	d1 := Derive("/out", nil, nil, e1)
	if !d1.Labels.Contains(i) {
		t.Error("integrity label lost on single-source derivation")
	}
}

func TestString(t *testing.T) {
	e := New("/t", map[string]string{"b": "2", "a": "1"}, label.Conf("x"))
	s := e.String()
	if !strings.HasPrefix(s, "/t{a=1 b=2}") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(s, "label:conf:x") {
		t.Errorf("String missing labels: %q", s)
	}
}

// The three tests below check the map-based reference codec itself
// (oracle_test.go), which the equivalence tests and fuzzers trust.

func TestMarshalHeadersRoundTrip(t *testing.T) {
	e := New("/patient_report",
		map[string]string{"patient_id": "1", "mdt": "7"},
		label.Conf("ecric.org.uk/mdt/7"), label.Int("ecric.org.uk/mdt"))
	e.Body = []byte(`{"field":"value"}`)

	headers, body, err := marshalHeaders(e)
	if err != nil {
		t.Fatalf("marshalHeaders: %v", err)
	}
	if headers[HeaderDestination] != "/patient_report" {
		t.Errorf("destination = %q", headers[HeaderDestination])
	}
	if headers[HeaderLabels] == "" {
		t.Error("labels header empty")
	}

	// Simulate broker-added headers that must be skipped on decode.
	headers["subscription"] = "sub-1"
	headers["message-id"] = "m-1"
	headers["content-length"] = "17"

	back, err := unmarshalHeaders(headers, body)
	if err != nil {
		t.Fatalf("unmarshalHeaders: %v", err)
	}
	if back.Topic != e.Topic {
		t.Errorf("Topic = %q", back.Topic)
	}
	if back.Attr("patient_id") != "1" || back.Attr("mdt") != "7" {
		t.Errorf("attrs = %v", back.Attrs)
	}
	if _, ok := back.Attrs["subscription"]; ok {
		t.Error("broker header leaked into attrs")
	}
	if !back.Labels.Equal(e.Labels) {
		t.Errorf("labels = %v, want %v", back.Labels, e.Labels)
	}
	if !bytes.Equal(back.Body, e.Body) {
		t.Errorf("body = %q", back.Body)
	}
}

func TestMarshalHeadersRejectsInvalid(t *testing.T) {
	if _, _, err := marshalHeaders(&Event{}); err == nil {
		t.Error("marshalHeaders of invalid event succeeded")
	}
}

func TestUnmarshalHeadersErrors(t *testing.T) {
	if _, err := unmarshalHeaders(map[string]string{}, nil); err == nil {
		t.Error("missing destination accepted")
	}
	headers := map[string]string{
		HeaderDestination: "/t",
		HeaderLabels:      "not-a-label",
	}
	if _, err := unmarshalHeaders(headers, nil); err == nil {
		t.Error("bad label header accepted")
	}
}

// TestUnmarshalIgnoresClearanceHeader: a clearance header on an inbound
// frame is transport metadata and never becomes an event attribute.
func TestUnmarshalIgnoresClearanceHeader(t *testing.T) {
	v := decodeWire(t, []byte("SEND\ndestination:/t\nk:v\n"+HeaderClearance+":label\\cconf\\cx\n\n\x00"))
	e, err := UnmarshalView(&v.Headers, v.Body, nil)
	if err != nil {
		t.Fatalf("UnmarshalView: %v", err)
	}
	if _, ok := e.Attrs[HeaderClearance]; ok {
		t.Error("clearance header leaked into attrs")
	}
	if e.Attr("k") != "v" {
		t.Error("ordinary attr lost")
	}
}
