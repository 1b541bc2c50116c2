// Test cases for the noretain analyzer.
package a

import (
	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/stomp"
)

type sink struct {
	view  stomp.FrameView
	hdr   *stomp.HeaderView
	cache *event.DecodeCache
	ctx   *engine.Context
	ev    *event.Event
}

var globalView stomp.FrameView

var globalCache *event.DecodeCache

func storeViewField(s *sink, v stomp.FrameView) {
	s.view = v // want `confined value stored to struct field view`
}

func storeHeaderPtr(s *sink, h *stomp.HeaderView) {
	s.hdr = h // want `confined value stored to struct field hdr`
}

func storeGlobalView(v stomp.FrameView) {
	globalView = v // want `confined value stored to package-level variable globalView`
}

func storeGlobalCache(c *event.DecodeCache) {
	globalCache = c // want `confined value stored to package-level variable globalCache`
}

func sendCache(ch chan *event.DecodeCache, c *event.DecodeCache) {
	ch <- c // want `confined value sent on a channel`
}

func goClosureCapture(ctx *engine.Context) {
	go func() {
		useContext(ctx) // want `confined value captured by a go closure`
	}()
}

func goArgHandoff(c *event.DecodeCache) {
	go consumeCache(c) // want `confined value passed to a goroutine`
}

func useContext(ctx *engine.Context)    {}
func consumeCache(c *event.DecodeCache) {}

type owner struct{ cache event.DecodeCache }

// A value copy of a cache is ownership, not retention: only pointer
// escapes alias the confined goroutine's table.
func storeCacheValue(o *owner, c event.DecodeCache) {
	o.cache = c // ok: value copy, caller owns it
}

// Locals die with the frame.
func localOnly(v stomp.FrameView) {
	local := v
	_ = local
}

// A goroutine parameter shadows the capture: passing a copy of a view by
// explicit argument is still flagged, but plain ints and events are not.
func goUnrelated(n int) {
	go func(m int) { _ = m }(n) // ok: nothing confined
}

func suppressedStore(s *sink, v stomp.FrameView) {
	//lint:ignore noretain decoder is quiesced during handshake, view cannot be reused
	s.view = v
}

func retainDeliveredEvent(b *broker.Broker, s *sink) {
	b.Subscribe("t", func(ev *event.Event) {
		s.ev = ev // want `pooled callback value stored to struct field ev`
		cp := ev.Clone()
		s.ev = cp // ok: clones outlive the delivery
	})
}

func sendDeliveredEvent(b *broker.Broker, ch chan *event.Event) {
	b.Subscribe("t", func(ev *event.Event) {
		ch <- ev // want `pooled callback value sent on a channel`
	})
}

func goDeliveredEvent(b *broker.Broker) {
	b.Subscribe("t", func(ev *event.Event) {
		go func() {
			_ = ev.Get("k") // want `confined value captured by a go closure: a delivered event is pooled`
		}()
	})
}

func retainEngineContext(ic *engine.InitContext, s *sink) {
	ic.Subscribe("t", func(ctx *engine.Context, ev *event.Event) error {
		s.ctx = ctx // want `confined value stored to struct field ctx: a pooled Context is reset per event`
		return nil
	})
}

func engineCallbackClean(ic *engine.InitContext) {
	ic.Subscribe("t", func(ctx *engine.Context, ev *event.Event) error {
		return ctx.Publish("out", nil, ev.Body) // ok: used within the delivery
	})
}

func suppressedRetain(b *broker.Broker, s *sink) {
	b.Subscribe("t", func(ev *event.Event) {
		//lint:ignore noretain subscriber owns the event, pool is bypassed in this test rig
		s.ev = ev
	})
}
