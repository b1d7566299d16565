package main

import (
	"fmt"
	"os"

	"repro/perfbench/calc"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one phase checked against ground truth.
type outcome struct {
	total     int // packets on air
	recovered int
	spurious  int
	failed    int       // shipped segments not answered by a frames report
	latencies []float64 // ms, one per matched frame
}

// evaluate matches a phase's reported frames to the packets on air and
// times each matched frame from when its input was due: for a gateway, the
// capture holding the packet's last sample; for the client, the segment.
func evaluate(w *workload, ph *phaseOut) outcome {
	tol := int64(maxSegment)
	if w.gateway {
		tol = captureLen
	}
	packets := w.groundTruth(ph.n, ph.base)
	m := calc.NewMatcher(packets, tol)
	var out outcome
	for _, a := range ph.arrivals {
		for _, f := range a.rep.Frames {
			idx, ok := m.Match(calc.Frame{Tech: f.Tech, Payload: f.Payload, Offset: f.Offset, CRCOK: f.CRCOK})
			if !ok {
				if f.CRCOK {
					fmt.Fprintf(os.Stderr, "perfbench: spurious %s frame %x at sample %d (segment %d)\n", f.Tech, f.Payload, f.Offset, a.rep.SegmentStart)
				}
				continue
			}
			k := int((a.rep.SegmentStart - ph.base) / maxSegment)
			if w.gateway {
				k = int((packets[idx].End - 1 - ph.base) / captureLen)
			}
			if k >= 0 && k < len(ph.sends) {
				out.latencies = append(out.latencies, float64(a.at-ph.sends[k].Due)/1e6)
			}
		}
	}
	out.total = m.Total()
	out.recovered = m.Recovered(ph.edgeByTech)
	out.spurious = m.Spurious
	out.failed = ph.busy + int(ph.spoolDropped)
	return out
}

// airX is seconds of air fully processed per wall-clock second.
func airX(ph *phaseOut) float64 {
	return ph.air / (float64(ph.end-ph.start) / 1e9)
}

// refAirX is airX at the reference host speed: a phase run while the host
// was twice as slow as the reference would have taken half the time.
func refAirX(ph *phaseOut) float64 { return airX(ph) * ph.slow }

// maxSpurious is the share of packets on air a phase may answer with
// spurious frames. A frame check is all that stops a wrong demodulation
// from being reported, and it does not stop every one (README.md, finding
// 7); a run cycles through its input pool, so one such frame repeats.
const maxSpurious = 0.02

// check returns the output-check violations of one phase.
func check(w *workload, name string, ph *phaseOut, o outcome) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, name+": "+fmt.Sprintf(format, args...)) }
	if ph.n == 0 {
		add("no input was handed over")
	}
	if float64(o.spurious) > maxSpurious*float64(o.total) {
		add("%d spurious frames for %d packets on air", o.spurious, o.total)
	}
	if o.failed > 0 {
		add("%d of %d shipped segments failed (busy %d, spool drops %d)", o.failed, ph.shipped, ph.busy, ph.spoolDropped)
	}
	if ph.badReports > 0 || ph.reconnects > 0 || ph.replayed > 0 {
		add("session trouble: %d bad reports, %d reconnects, %d replays", ph.badReports, ph.reconnects, ph.replayed)
	}
	if ph.orderErr != nil {
		add("reply order: %v", ph.orderErr)
	}
	if !w.gateway && len(ph.arrivals)+ph.busy != ph.n {
		add("%d replies for %d segments", len(ph.arrivals)+ph.busy, ph.n)
	}
	return v
}

// namedUnit names one reported metric and its unit.
type namedUnit struct{ name, unit string }

// endToEndMetrics are what --trace 0 reports, in BENCHMARK.json order.
var endToEndMetrics = []namedUnit{
	{"air_x", "x"}, {"frame_latency_p50_ms", "ms"}, {"frame_latency_tail_ms", "ms"},
	{"recovered_frac", "ratio"}, {"wire_bytes_per_air_s", "B/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"},
}

// layerMetrics are what --trace 1 reports, in BENCHMARK.json order.
var layerMetrics = []namedUnit{
	{"detect.busy_s", "s"}, {"detect.ns_per_sample", "ns"}, {"detect.rescan_ratio", "ratio"}, {"detect.segments", "count"},
	{"gateway.feeder_busy_s", "s"}, {"gateway.edge_s", "s"}, {"gateway.ship_ratio", "ratio"}, {"gateway.edge_frames", "count"}, {"gateway.ship_ms_p50", "ms"},
	{"backhaul.tx_bytes_per_segment", "B"}, {"backhaul.write_block_s", "s"}, {"backhaul.reply_write_block_s", "s"},
	{"resilience.spool_dropped", "count"}, {"resilience.replayed", "count"}, {"resilience.reconnects", "count"},
	{"farm.wait_ms_p50", "ms"}, {"farm.utilization", "ratio"}, {"farm.rejected", "count"},
	{"cancel.decode_busy_s", "s"}, {"cancel.decode_ms_p50", "ms"}, {"cancel.decode_ms_max", "ms"}, {"cancel.ns_per_sample", "ns"},
	{"cancel.failed_demods_per_frame", "ratio"}, {"cancel.sic_rounds", "count"}, {"cancel.kill_freq", "count"},
	{"cancel.kill_css", "count"}, {"cancel.kill_codes", "count"}, {"cancel.duplicates", "count"},
	{"cloud.reply_ms_p50", "ms"}, {"cloud.reply_ms_max", "ms"},
	{"outcome.spurious_frames", "count"}, {"outcome.failed_frac", "ratio"},
	{"latency.tail_pct", "pct"}, {"latency.samples", "count"},
	{"gen.lateness_ms", "ms"}, {"gen.stall_ms", "ms"},
	{"trace.air_x_untraced", "x"}, {"trace.air_x_traced", "x"}, {"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac_max", "ratio"}, {"trace.segments", "count"},
	{"host.slowness", "ratio"},
}

// segSpan is one segment's life as the traced wrappers saw it: a root span
// from when its input entered the system to its report's arrival, and the
// contiguous child spans that account for that time.
type segSpan struct {
	start    int64 // segment start sample (the key every seam shares)
	root     calc.Span
	children []calc.Span
}

// segmentSpans rebuilds each answered segment's spans from a traced
// phase. For a gateway segment the root opens at the Detect call that
// emitted it: the stream emits a segment on the first push whose buffer
// reaches maxPacket/2 past the segment's end, or on the final flush.
func segmentSpans(w *workload, ph *phaseOut) []segSpan {
	half := int64(maxPacket(w) / 2)
	var out []segSpan
	id := 0
	for _, a := range ph.arrivals {
		dec, ok := ph.decodes[a.rep.SegmentStart]
		if !ok {
			continue // answered without a decode (degraded path)
		}
		sent, hasSend := ph.sendAt[a.rep.Seq]
		if !hasSend {
			sent = dec.start
		}
		id++
		root := calc.Span{ID: id * 10, Name: "segment", End: a.at}
		var kids []calc.Span
		child := func(name string, s, e int64) {
			kids = append(kids, calc.Span{ID: root.ID + len(kids) + 1, Parent: root.ID, Name: name, Start: s, End: e})
		}
		if w.gateway {
			end := a.rep.SegmentStart + int64(dec.samples)
			j := len(ph.detects) - 1
			for c := 0; c < ph.n && c < len(ph.detects); c++ {
				if end <= ph.base+int64(c+1)*captureLen-half {
					j = c
					break
				}
			}
			if j < 0 {
				continue
			}
			d := ph.detects[j]
			root.Start = d.start
			child("detect", d.start, d.end)
			child("ship", d.end, sent)
		} else {
			k := int((a.rep.SegmentStart - ph.base) / maxSegment)
			if k < 0 || k >= len(ph.sends) {
				continue
			}
			root.Start = ph.sends[k].Due
			child("client_wait", root.Start, sent)
		}
		child("farm_wait", sent, dec.start)
		child("decode", dec.start, dec.end)
		child("reply", dec.end, a.at)
		out = append(out, segSpan{start: a.rep.SegmentStart, root: root, children: kids})
	}
	return out
}

// maxPacket is the gateway stream's hold-back unit: the longest packet of
// the gateway's technologies, in samples.
func maxPacket(w *workload) int {
	m := 0
	for _, t := range w.gwTechs {
		if n := t.MaxPacketSamples(fs); n > m {
			m = n
		}
	}
	return m
}

// spanMs returns the durations (ms) of the named child span over segments.
func spanMs(segs []segSpan, name string) []float64 {
	var out []float64
	for _, s := range segs {
		var ms float64
		found := false
		for _, c := range s.children {
			if c.Name == name {
				ms += float64(c.Dur()) / 1e6
				found = true
			}
		}
		if found {
			out = append(out, ms)
		}
	}
	return out
}

// layers computes every per-layer metric from the traced phases: capT (a
// closed-loop phase) and pacedT (open loop), plus the untraced capacity
// phase's air_x for the tracing overhead.
func layers(w *workload, capT, pacedT *phaseOut, capU *phaseOut, oCap, oPaced outcome) map[string]metric {
	v := make(map[string]float64)
	both := []*phaseOut{capT, pacedT}
	var detBusy, rescanned, captured int64
	var detections, shipped, edgeFrames int
	var tx, writeBlock, replyBlock, decBusy, decSamples int64
	var spool, replayed, reconnects, rejected uint64
	var frames int
	var st struct{ sic, freq, css, codes, failed, dup int }
	for _, ph := range both {
		for _, d := range ph.detects {
			detBusy += d.end - d.start
			rescanned += int64(d.samples)
		}
		if w.gateway {
			captured += int64(ph.n) * captureLen
		}
		detections += ph.detections
		shipped += ph.shipped
		for _, n := range ph.edgeByTech {
			edgeFrames += n
		}
		tx += ph.txBytes
		writeBlock += ph.writeBlock
		replyBlock += ph.replyBlock
		spool += ph.spoolDropped
		replayed += ph.replayed
		reconnects += ph.reconnects
		rejected += ph.farmRejected
		for _, d := range ph.decodes {
			decBusy += d.end - d.start
			decSamples += int64(d.samples)
			frames += d.frames
			st.sic += d.stats.SICRounds
			st.freq += d.stats.KillFreq
			st.css += d.stats.KillCSS
			st.codes += d.stats.KillCodes
			st.failed += d.stats.FailedDecode
			st.dup += d.stats.Duplicates
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["detect.busy_s"] = float64(detBusy) / 1e9
	v["detect.ns_per_sample"] = ratio(float64(detBusy), float64(captured))
	v["detect.rescan_ratio"] = ratio(float64(rescanned), float64(captured))
	if w.gateway {
		v["detect.segments"] = float64(detections)
		v["gateway.ship_ratio"] = ratio(float64(shipped), float64(detections))
		v["gateway.edge_frames"] = float64(edgeFrames)
		if n := len(capT.sends); n > 1 {
			feeder := capT.sends[n-1].Done - capT.sends[0].Done
			var det int64
			for j := 0; j < n-1 && j < len(capT.detects); j++ {
				det += capT.detects[j].end - capT.detects[j].start
			}
			v["gateway.feeder_busy_s"] = float64(feeder) / 1e9
			v["gateway.edge_s"] = float64(feeder-det) / 1e9
		}
	}
	v["backhaul.tx_bytes_per_segment"] = ratio(float64(tx), float64(shipped))
	v["backhaul.write_block_s"] = float64(writeBlock) / 1e9
	v["backhaul.reply_write_block_s"] = float64(replyBlock) / 1e9
	v["resilience.spool_dropped"] = float64(spool)
	v["resilience.replayed"] = float64(replayed)
	v["resilience.reconnects"] = float64(reconnects)
	v["farm.rejected"] = float64(rejected)
	var capBusy int64
	for _, d := range capT.decodes {
		capBusy += d.end - d.start
	}
	v["farm.utilization"] = ratio(float64(capBusy), float64(farmWorkers)*float64(capT.end-capT.start))
	v["cancel.decode_busy_s"] = float64(decBusy) / 1e9
	v["cancel.ns_per_sample"] = ratio(float64(decBusy), float64(decSamples))
	v["cancel.failed_demods_per_frame"] = ratio(float64(st.failed), float64(frames))
	v["cancel.sic_rounds"] = float64(st.sic)
	v["cancel.kill_freq"] = float64(st.freq)
	v["cancel.kill_css"] = float64(st.css)
	v["cancel.kill_codes"] = float64(st.codes)
	v["cancel.duplicates"] = float64(st.dup)

	// Per-segment timings come from the open-loop phase, where the queue
	// holds only what the offered rate puts there.
	segs := segmentSpans(w, pacedT)
	var ship []float64
	for _, s := range segs {
		var ms float64
		for _, c := range s.children {
			if c.Name == "ship" || c.Name == "farm_wait" {
				ms += float64(c.Dur()) / 1e6
			}
		}
		ship = append(ship, ms)
	}
	if w.gateway {
		v["gateway.ship_ms_p50"] = calc.Median(ship)
	}
	v["farm.wait_ms_p50"] = calc.Median(spanMs(segs, "farm_wait"))
	dec := spanMs(segs, "decode")
	v["cancel.decode_ms_p50"] = calc.Median(dec)
	v["cancel.decode_ms_max"] = calc.Max(dec)
	reply := spanMs(segs, "reply")
	v["cloud.reply_ms_p50"] = calc.Median(reply)
	v["cloud.reply_ms_max"] = calc.Max(reply)
	all := append(segmentSpans(w, capT), segs...)
	var unattr float64
	for _, s := range all {
		if u := calc.Unattributed(s.root, s.children); u > unattr {
			unattr = u
		}
	}
	v["trace.unattributed_frac_max"] = unattr
	v["trace.segments"] = float64(len(all))

	v["outcome.spurious_frames"] = float64(oCap.spurious + oPaced.spurious)
	v["outcome.failed_frac"] = ratio(float64(oCap.failed+oPaced.failed), float64(capT.shipped+pacedT.shipped))
	if _, pct, _, ok := calc.Tail(oPaced.latencies); ok {
		v["latency.tail_pct"] = pct
	}
	v["latency.samples"] = float64(len(oPaced.latencies))
	late, stalled := calc.Lateness(pacedT.sends)
	v["gen.lateness_ms"] = float64(late) / 1e6
	v["gen.stall_ms"] = float64(stalled) / 1e6
	v["trace.air_x_untraced"] = refAirX(capU)
	v["trace.air_x_traced"] = refAirX(capT)
	v["trace.overhead_frac"] = 1 - refAirX(capT)/refAirX(capU)
	v["host.slowness"] = (capT.slow + pacedT.slow) / 2

	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{Value: v[lm.name], Unit: lm.unit}
	}
	return out
}
