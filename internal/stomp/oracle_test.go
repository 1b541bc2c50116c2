package stomp

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// The map-based frame codec the production fast paths are checked
// against: conformance tests, fuzzers and equivalence tests compare the
// Encoder, DecodeView and the preencoded images with these references.

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// WriteFrame encodes a frame to w through a pooled Encoder.
func WriteFrame(w io.Writer, f *Frame) error {
	enc := encoderPool.Get().(*Encoder)
	err := enc.Encode(w, f)
	encoderPool.Put(enc)
	return err
}

// ReadFrame decodes one frame from r with a fresh Decoder, materialising
// the header map. It skips heart-beat newlines between frames and returns
// io.EOF at a clean end of stream.
func ReadFrame(r *bufio.Reader) (*Frame, error) {
	d := Decoder{r: r}
	return d.Decode()
}

// encodeMessage is the map-based MESSAGE reference: f's headers in sorted
// order, minus stale routing headers, then the per-delivery subscription
// and message-id (idPrefix followed by the decimal seq), content-length
// and the body.
func encodeMessage(w io.Writer, f *Frame, subscription, idPrefix string, seq uint64) error {
	b := append([]byte(f.Command), '\n')
	header := func(k, v string) {
		b = appendEscapedHeader(b, k)
		b = append(b, ':')
		b = appendEscapedHeader(b, v)
		b = append(b, '\n')
	}
	for _, k := range sortedHeaderKeys(nil, f.Headers, HdrContentLength) {
		if k != HdrSubscription && k != HdrMessageID {
			header(k, f.Headers[k])
		}
	}
	header(HdrSubscription, subscription)
	header(HdrMessageID, idPrefix+strconv.FormatUint(seq, 10))
	header(HdrContentLength, strconv.Itoa(len(f.Body)))
	b = append(b, '\n')
	b = append(b, f.Body...)
	b = append(b, 0)
	_, err := w.Write(b)
	return err
}

// imageOf builds a wire image from a header map through ImageBuilder, the
// way package event builds one from a published event: sorted keys,
// content-length derived from the body, and the subscription/message-id
// routing headers left to EncodeImage.
func imageOf(command string, headers map[string]string, body []byte) *WireImage {
	b := NewImageBuilder(command, 64)
	for _, k := range sortedHeaderKeys(nil, headers, HdrContentLength) {
		if k != HdrSubscription && k != HdrMessageID {
			b.Header(k, headers[k])
		}
	}
	img := b.Finish(body)
	return &img
}

// sendImage builds the SEND image of a publish to destination, for the
// client's SendImage paths.
func sendImage(destination string, headers map[string]string, body []byte) *WireImage {
	hs := map[string]string{HdrDestination: destination}
	for k, v := range headers {
		hs[k] = v
	}
	return imageOf(CmdSend, hs, body)
}
