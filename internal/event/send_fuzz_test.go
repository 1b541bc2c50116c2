package event

import (
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// fuzzHeaderCap keeps fuzz-generated header lines under the decoder's
// MaxHeaderLen even after escaping doubles every byte.
const fuzzHeaderCap = stomp.MaxHeaderLen/2 - 64

// FuzzSendRoundTrip drives both wire images of arbitrary events: SendImage
// must accept every valid event and reject every invalid one, and for a
// valid event the SEND (with and without a spliced receipt) and MESSAGE
// images must match the map-based references for the event minus its
// transport-named attributes and decode back to exactly that event (see
// checkWireImages).
func FuzzSendRoundTrip(f *testing.F) {
	f.Add("/t", "k", "v", "k2", "v2", []byte("body"), true)
	f.Add("/patient_report", "patient_id", "33812769", "type", "cancer",
		[]byte(`{"record": true}`), true)
	f.Add("/t", "tricky:key", "line1\nline2:with\\slash\rcr", "", "anonymous",
		[]byte{0x01, 0x00, 0x02}, false)
	f.Add("", "k", "v", "k", "v2", []byte(nil), false)                          // invalid topic
	f.Add("/t", "destination", "/evil", "receipt", "rcpt-1", []byte(nil), true) // transport-named attrs
	f.Add("/t", "x-safeweb-labels", "forged", "zz", "", []byte(nil), false)

	f.Fuzz(func(t *testing.T, topic, k1, v1, k2, v2 string, body []byte, labelled bool) {
		if len(topic) > fuzzHeaderCap || len(k1)+len(v1) > fuzzHeaderCap ||
			len(k2)+len(v2) > fuzzHeaderCap {
			return
		}
		ev := &Event{Topic: topic, Attrs: map[string]string{k1: v1, k2: v2}}
		if len(body) > 0 {
			ev.Body = body
		}
		if labelled {
			ev.Labels = label.NewSet(label.Conf("fuzz.test/x"), label.Int("fuzz.test/y"))
		}
		ev.Freeze()

		if ev.Validate() != nil {
			if _, err := ev.SendImage(); err == nil {
				t.Fatal("SendImage accepted an invalid event")
			}
			return
		}
		checkWireImages(t, ev)
	})
}
