package stomp

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// imageFromFrame builds the MESSAGE wire image for a frame's headers and
// body.
func imageFromFrame(f *Frame) *WireImage {
	return imageOf(CmdMessage, f.Headers, f.Body)
}

// TestEncodeImageMatchesEncodeMessage is the wire-conformance anchor for
// the preencoded path: for the same logical MESSAGE and routing headers,
// EncodeImage must put byte-identical data on the wire to the map-based
// encodeMessage reference —
// including header escaping, sorted order, routing-header replacement and
// content-length framing.
func TestEncodeImageMatchesEncodeMessage(t *testing.T) {
	frames := map[string]*Frame{
		"delivery": messageFrame(),
		"attr-free no body": func() *Frame {
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			return f
		}(),
		"escaped headers": func() *Frame {
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			f.SetHeader("tricky:key", "line1\nline2:with\\slash\rcr")
			f.SetHeader("empty", "")
			f.Body = []byte("\x00\x01 body with NUL \x00")
			return f
		}(),
		"stale routing headers dropped": func() *Frame {
			// Base headers named like the routing headers must be
			// replaced by the per-delivery values on both paths.
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			f.SetHeader(HdrSubscription, "stale-sub")
			f.SetHeader(HdrMessageID, "stale-id")
			return f
		}(),
		"routing value needing escape": func() *Frame {
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			return f
		}(),
	}
	subs := map[string]string{"plain": "sub-7", "escaped": "sub:with\ncontrol"}

	for fname, f := range frames {
		img := imageFromFrame(f)
		for sname, sub := range subs {
			var viaMessage, viaImage bytes.Buffer
			var enc Encoder
			if err := encodeMessage(&viaMessage, f, sub, "m-9-", 4711); err != nil {
				t.Fatalf("%s/%s: encodeMessage: %v", fname, sname, err)
			}
			if err := enc.EncodeImage(&viaImage, img, sub, "m-9-", 4711); err != nil {
				t.Fatalf("%s/%s: EncodeImage: %v", fname, sname, err)
			}
			if !bytes.Equal(viaMessage.Bytes(), viaImage.Bytes()) {
				t.Errorf("%s/%s: image bytes differ from encodeMessage:\n%q\n%q",
					fname, sname, viaMessage.Bytes(), viaImage.Bytes())
			}

			// The spliced frame must decode back to the logical message.
			back, err := ReadFrame(bufio.NewReader(bytes.NewReader(viaImage.Bytes())))
			if err != nil {
				t.Fatalf("%s/%s: decode spliced image: %v", fname, sname, err)
			}
			if back.Header(HdrSubscription) != sub || back.Header(HdrMessageID) != "m-9-4711" {
				t.Errorf("%s/%s: routing headers = %q/%q", fname, sname,
					back.Header(HdrSubscription), back.Header(HdrMessageID))
			}
			if !bytes.Equal(back.Body, f.Body) {
				t.Errorf("%s/%s: body corrupted through image path", fname, sname)
			}
		}
	}
}

// TestEncodeImageConformanceCorpus runs every successful corpus case
// through the image path as a MESSAGE, proving the preencoded splice
// speaks the exact dialect of the incremental encoder on the shared
// canonical corpus.
func TestEncodeImageConformanceCorpus(t *testing.T) {
	for _, tc := range conformanceCorpus() {
		if tc.wantErr {
			continue
		}
		f := &Frame{Command: CmdMessage, Headers: tc.headers}
		if tc.body != "" {
			f.Body = []byte(tc.body)
		}
		img := imageFromFrame(f)
		var viaMessage, viaImage bytes.Buffer
		var enc Encoder
		if err := encodeMessage(&viaMessage, f, "sub-1", "m-1-", 1); err != nil {
			t.Fatalf("%s: encodeMessage: %v", tc.name, err)
		}
		if err := enc.EncodeImage(&viaImage, img, "sub-1", "m-1-", 1); err != nil {
			t.Fatalf("%s: EncodeImage: %v", tc.name, err)
		}
		if !bytes.Equal(viaMessage.Bytes(), viaImage.Bytes()) {
			t.Errorf("%s: image bytes differ:\n%q\n%q", tc.name, viaMessage.Bytes(), viaImage.Bytes())
		}
	}
}

// TestEncodeImageAllocs pins the per-delivery cost of the preencoded
// path: splicing routing headers around a shared image must not allocate
// once the encoder scratch is warm — the image itself was the one
// allocation, paid once per published event.
func TestEncodeImageAllocs(t *testing.T) {
	img := imageFromFrame(messageFrame())
	var enc Encoder
	if err := enc.EncodeImage(io.Discard, img, "sub-12", "m-3-", 1); err != nil {
		t.Fatalf("EncodeImage: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := enc.EncodeImage(io.Discard, img, "sub-12", "m-3-", 4711); err != nil {
			t.Fatalf("EncodeImage: %v", err)
		}
	})
	if avg > 0 {
		t.Errorf("EncodeImage allocs/op = %g, want 0", avg)
	}
}

func BenchmarkFrameEncodeImage(b *testing.B) {
	img := imageFromFrame(messageFrame())
	var enc Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeImage(io.Discard, img, "sub-12", "m-3-", uint64(i)); err != nil {
			b.Fatalf("EncodeImage: %v", err)
		}
	}
}
