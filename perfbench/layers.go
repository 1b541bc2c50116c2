package main

import (
	"bytes"
	"fmt"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/selector"
	"safeweb/internal/stomp"
)

// endToEnd lists the gated metrics every workload reports untraced.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"goodput_ops", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, for every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"loadgen.lat_p50_us", "us", "lower"},
	{"loadgen.late_p50_us", "us", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.lat_p99_us", "us", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"broker.ingress_us", "us", "lower"},
	{"broker.fanout_first_us", "us", "lower"},
	{"broker.fanout_last_us", "us", "lower"},
	{"broker.delivered_per_op", "count", "higher"},
	{"broker.filtered_by_label_per_op", "count", "lower"},
	{"broker.filtered_by_selector_per_op", "count", "lower"},
	{"broker.rejected_publish", "count", "lower"},
	{"broker.dropped_deliveries", "count", "lower"},
	{"broker.overflow_drops", "count", "lower"},
	{"broker.queue_high_water", "count", "lower"},
	{"broker.replay_filtered_per_op", "count", "lower"},
	{"broker.durable_appends_per_op", "count", "higher"},
	{"broker.journal_append_errors", "count", "lower"},
	{"engine.trigger_dispatch_us", "us", "lower"},
	{"engine.ctx_publish_ns", "ns", "lower"},
	{"engine.callback_errors", "count", "lower"},
	{"engine.flow_violations", "count", "lower"},
	{"label.hasall_ns", "ns", "lower"},
	{"label.parse_set_ns", "ns", "lower"},
	{"label.clearance_checks_per_op", "count", "lower"},
	{"stomp.decode_view_ns", "ns", "lower"},
	{"stomp.encode_image_ns", "ns", "lower"},
	{"stomp.wire_bytes_per_op", "B", "lower"},
	{"event.send_image_ns", "ns", "lower"},
	{"event.wire_image_ns", "ns", "lower"},
	{"event.unmarshal_view_ns", "ns", "lower"},
	{"event.wire_image_builds_per_op", "count", "lower"},
	{"event.send_image_builds_per_op", "count", "lower"},
	{"selector.match_ns", "ns", "lower"},
	{"journal.open_ms", "ms", "lower"},
	{"journal.read_ns", "ns", "lower"},
	{"journal.append_ns", "ns", "lower"},
	{"journal.replay_eps", "1/s", "higher"},
	{"webfront.auth_us", "us", "lower"},
	{"webfront.privfetch_us", "us", "lower"},
	{"webfront.handler_us", "us", "lower"},
	{"webfront.labelcheck_us", "us", "lower"},
	{"webfront.blocked_per_op", "count", "lower"},
	{"webfront.wrap_docs_us", "us", "lower"},
	{"docstore.query_us", "us", "lower"},
	{"taint.to_json_us", "us", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.sched_lat_p99_us", "us", "lower"},
	{"fig5.processing_us", "us", "lower"},
	{"fig5.serialization_us", "us", "lower"},
	{"fig5.label_us", "us", "lower"},
	{"trace.overhead_pct", "pct", "lower"},
	{"trace.unattributed_us_per_op", "us", "lower"},
}

// layerValues collects a traced run's per-layer numbers by name.
type layerValues map[string]float64

func (lv layerValues) add(m layerValues) {
	for k, v := range m {
		lv[k] = v
	}
}

// baseLayers are the per-layer metrics every traced run reports: the
// generator's over the whole window, the runtime's over the traced half.
func baseLayers(rep *report, rw runWindows, st genStats, traced window) layerValues {
	lv := layerValues{"loadgen.lat_p50_us": rep.latP50}
	lv.add(loadgenMetrics(merge(rw.all), st))
	lv.add(traced.runtimeMetrics())
	return lv
}

// metrics returns every per-layer metric in table order.
func (lv layerValues) metrics() []metric {
	out := make([]metric, len(perLayer))
	for i, p := range perLayer {
		out[i] = metric{p.name, p.unit, lv[p.name]}
	}
	return out
}

// setEndToEnd records a run's end-to-end figures: the gated metrics in
// table order, and the latency p50, which is reported but not gated.
func (r *report) setEndToEnd(setup []float64, latP50, cpuPerOp, goodput float64) {
	r.notes = append(r.notes, fmt.Sprintf("set-ups %.4f s", setup))
	vals := []float64{median(setup), cpuPerOp, goodput, peakRSSMB()}
	r.e2e = make([]metric, len(endToEnd))
	for i, e := range endToEnd {
		r.e2e[i] = metric{e.name, e.unit, vals[i]}
	}
	r.latP50 = latP50
}

// spanP50 is the median of the positive spans b[i]-a[i] in µs over ops
// where both ends were stamped.
func spanP50(a, b []int64) float64 {
	var xs []float64
	for i := range a {
		if a[i] > 0 && b[i] > 0 {
			xs = append(xs, float64(b[i]-a[i])/1e3)
		}
	}
	return median(xs)
}

// codecTimes are the wire layers' public functions timed on a sample of
// the run's own events, in ns per call, plus their mean wire sizes.
type codecTimes struct {
	sendImage, wireImage, encodeImage, decodeView, unmarshalView float64
	hasAll, parseSet, match                                      float64
	sendBytes, msgBytes                                          float64
}

// codecPasses is how often timeCodec repeats each timing; it reports the
// median pass, so a cold first pass (page faults, buffer growth) does not
// count.
const codecPasses = 5

// timeCodec times SendImage, WireImage, EncodeImage, DecodeView,
// UnmarshalViewDelivery, Privileges.HasAll, label.ParseSet and (when sel
// is set) Selector.MatchesAttrs on events built by build, which must
// return a fresh unfrozen event for the run's i-th sampled input.
func timeCodec(n int, build func(i int) *event.Event, privs *label.Privileges, sel *selector.Selector) (codecTimes, error) {
	var ct codecTimes
	fresh := func() []*event.Event {
		evs := make([]*event.Event, n)
		for i := range evs {
			evs[i] = build(i)
		}
		return evs
	}
	var sendPass, wirePass, encPass, decPass, umPass, hasPass, parsePass, matchPass []float64
	var frames bytes.Buffer
	var enc stomp.Encoder
	var cache event.DecodeCache
	for pass := 0; pass < codecPasses; pass++ {
		sendEvs, evs := fresh(), fresh()
		t0 := time.Now()
		for _, ev := range sendEvs {
			ev.Freeze()
			img, err := ev.SendImage()
			if err != nil {
				return ct, fmt.Errorf("SendImage: %w", err)
			}
			ct.sendBytes += float64(img.WireLen())
		}
		sendPass = append(sendPass, perCall(t0, n))

		imgs := make([]*stomp.WireImage, n)
		t0 = time.Now()
		for i, ev := range evs {
			ev.Freeze()
			img, err := ev.WireImage()
			if err != nil {
				return ct, fmt.Errorf("WireImage: %w", err)
			}
			imgs[i] = img
		}
		wirePass = append(wirePass, perCall(t0, n))

		frames.Reset()
		t0 = time.Now()
		for i, img := range imgs {
			if err := enc.EncodeImage(&frames, img, "sub-0", "m-1-", uint64(i)); err != nil {
				return ct, fmt.Errorf("EncodeImage: %w", err)
			}
		}
		encPass = append(encPass, perCall(t0, n))
		ct.msgBytes = float64(frames.Len()) / float64(n)

		dec := stomp.NewDecoder(bytes.NewReader(frames.Bytes()))
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if _, err := dec.DecodeView(); err != nil {
				return ct, fmt.Errorf("DecodeView: %w", err)
			}
		}
		decPass = append(decPass, perCall(t0, n))

		dec = stomp.NewDecoder(bytes.NewReader(frames.Bytes()))
		t0 = time.Now()
		for i := 0; i < n; i++ {
			v, err := dec.DecodeView()
			if err != nil {
				return ct, fmt.Errorf("DecodeView: %w", err)
			}
			ev, err := event.UnmarshalViewDelivery(&v.Headers, v.Body, &cache)
			if err != nil {
				return ct, fmt.Errorf("UnmarshalViewDelivery: %w", err)
			}
			ev.Release()
		}
		umPass = append(umPass, perCall(t0, n)-decPass[pass])

		var confs []label.Set
		var hdrs []string
		for _, ev := range evs {
			if c := ev.Labels.Confidentiality(); !c.IsEmpty() {
				confs = append(confs, c)
				hdrs = append(hdrs, ev.LabelHeader())
			}
		}
		t0 = time.Now()
		for _, c := range confs {
			if privs.HasAll(label.Clearance, c) {
				sink++
			}
		}
		hasPass = append(hasPass, perCall(t0, len(confs)))
		t0 = time.Now()
		for _, h := range hdrs {
			s, err := label.ParseSet(h)
			if err != nil {
				return ct, fmt.Errorf("ParseSet: %w", err)
			}
			sink += s.Len()
		}
		parsePass = append(parsePass, perCall(t0, len(hdrs)))
		if sel != nil {
			t0 = time.Now()
			for _, ev := range evs {
				if sel.MatchesAttrs(ev.Attrs) {
					sink++
				}
			}
			matchPass = append(matchPass, perCall(t0, n))
		}
	}
	ct.sendBytes /= float64(n * codecPasses)
	ct.sendImage, ct.wireImage, ct.encodeImage = median(sendPass), median(wirePass), median(encPass)
	ct.decodeView, ct.unmarshalView = median(decPass), max(median(umPass), 0)
	ct.hasAll, ct.parseSet, ct.match = median(hasPass), median(parsePass), median(matchPass)
	return ct, nil
}

// sink keeps timed results live so the compiler cannot drop the calls.
var sink int

func perCall(t0 time.Time, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// perOpCalls says how often each timed function runs per op, from the
// public Stats counters and the workload's own structure.
type perOpCalls struct {
	sends, wireBuilds, encodes, decodes, checks, parses, matches float64
}

// codecLayers turns codec timings and per-op call counts into the
// per-layer metrics, the Fig. 5 regrouping and the attributed CPU per op
// (µs).
func codecLayers(ct codecTimes, c perOpCalls, cpuPerOp float64, lv layerValues) (attributed float64) {
	ser := (ct.sendImage*c.sends + ct.wireImage*c.wireBuilds + ct.encodeImage*c.encodes +
		(ct.decodeView+ct.unmarshalView)*c.decodes) / 1e3
	lab := (ct.hasAll*c.checks + ct.parseSet*c.parses) / 1e3
	sel := ct.match * c.matches / 1e3
	proc := cpuPerOp - ser - lab
	if proc < 0 {
		proc = 0
	}
	lv.add(layerValues{
		"label.hasall_ns":               ct.hasAll,
		"label.parse_set_ns":            ct.parseSet,
		"label.clearance_checks_per_op": c.checks,
		"stomp.decode_view_ns":          ct.decodeView,
		"stomp.encode_image_ns":         ct.encodeImage,
		"stomp.wire_bytes_per_op":       ct.sendBytes*c.sends + ct.msgBytes*c.encodes,
		"event.send_image_ns":           ct.sendImage,
		"event.wire_image_ns":           ct.wireImage,
		"event.unmarshal_view_ns":       ct.unmarshalView,
		"selector.match_ns":             ct.match,
		"fig5.processing_us":            proc,
		"fig5.serialization_us":         ser,
		"fig5.label_us":                 lab,
	})
	return ser + lab + sel
}

// fig5Note prints the Fig. 5 backend regrouping beside the paper's.
func fig5Note(lv layerValues) string {
	p, s, l := lv["fig5.processing_us"], lv["fig5.serialization_us"], lv["fig5.label_us"]
	tot := p + s + l
	if tot == 0 {
		return "fig5: no backend CPU attributed"
	}
	return fmt.Sprintf("fig5 backend per op: processing %.1f us (%.0f%%), (de)serialisation %.1f us (%.0f%%), label management %.1f us (%.0f%%); paper: 51/20/13 ms (61/24/15%%)",
		p, 100*p/tot, s, 100*s/tot, l, 100*l/tot)
}

// traceLayers fills the trace reconciliation metrics: the traced half's
// CPU per op against the untraced half's, and the CPU per op the timed
// layers do not account for.
func traceLayers(untraced, traced window, attributed float64, lv layerValues) {
	ov := 0.0
	if u := untraced.cpuPerOp(); u > 0 {
		ov = 100 * (traced.cpuPerOp() - u) / u
	}
	lv["trace.overhead_pct"] = ov
	lv["trace.unattributed_us_per_op"] = untraced.cpuPerOp() - attributed
}
