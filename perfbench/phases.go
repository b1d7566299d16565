package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/perfbench/calc"
)

// phase is one timed phase of a run: the capacity phase (closed loop) or
// the paced phase (open loop at the workload's offered air rate).
type phase struct {
	paced   bool
	traced  bool
	seconds float64
}

// phaseOut is what one phase observed, gathered at the public seams.
type phaseOut struct {
	setupS float64 // build + warm-up of this phase's system

	// slow is the host's slowness over the phase (hostProbe.slowness),
	// set by measure.
	slow float64

	base       int64 // absolute start of phase input 0
	n          int   // inputs handed over
	air        float64
	start, end int64
	sends      []calc.Send
	arrivals   []arrival

	// Counter deltas over the phase (gateway workloads read them from
	// Gateway.Stats and Registry().Snapshot()).
	detections   int
	shipped      int
	edgeByTech   map[string]int
	busy         int
	badReports   int
	spoolDropped uint64
	replayed     uint64
	reconnects   uint64
	txBytes      int64
	farmRejected uint64
	orderErr     error // cloud-collisions reply order

	traced // zero unless the phase was traced
}

// dueAt returns when phase input k is due, and whether it is still part of
// the phase. A capacity phase hands inputs over back to back until its
// time is up; a paced phase offers the workload's rate of seconds of air
// per wall-clock second for its duration.
func dueAt(w *workload, ph phase, start int64, k int) (int64, bool) {
	limit := start + int64(ph.seconds*1e9)
	if !ph.paced {
		t := now()
		return t, t < limit
	}
	d := start + int64(w.air(k)/w.pacedRate*1e9)
	return d, d < limit
}

// sleepUntil waits for the monotonic instant t.
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// runPhase builds a fresh system, warms it up and runs one phase on it.
func runPhase(w *workload, seed uint64, ph phase) (*phaseOut, error) {
	if w.gateway {
		return runGatewayPhase(w, seed, ph)
	}
	return runClientPhase(w, seed, ph)
}

func runGatewayPhase(w *workload, seed uint64, ph phase) (*phaseOut, error) {
	t0 := now()
	rec := newRecorder(ph.traced)
	cl, err := startCloud(rec)
	if err != nil {
		return nil, err
	}
	g, err := startGateway(w, seed, cl.addr, rec)
	if err != nil {
		return nil, err
	}
	if err := g.warm(w); err != nil {
		return nil, err
	}
	out := &phaseOut{setupS: float64(now()-t0) / 1e9, base: captureLen}

	st0 := g.gw.Stats()
	snap0 := g.gw.Registry().Snapshot()
	tx0 := rec.txBytes.Load()
	arr0 := len(g.arrived())
	rej0 := cl.fm.Snapshot().Rejected
	rec.reset()

	// Two capture buffers alternate: the feeder takes capture k+1 only
	// after it has finished with capture k, so buffer k%2 is free again by
	// the time capture k+2 is expanded into it.
	var bufs [2][]complex128
	out.start = now()
	for k := 0; ph.seconds > 0; k++ {
		p := w.at(k, out.base)
		due, ok := dueAt(w, ph, out.start, k)
		if !ok {
			break
		}
		bufs[k%2] = p.in.expand(bufs[k%2])
		sleepUntil(due)
		s := now()
		g.captures <- bufs[k%2]
		out.sends = append(out.sends, calc.Send{Due: due, Start: s, Done: now()})
	}
	close(g.captures)
	runErr := <-g.runDone
	out.end = now()
	if err := cl.stop(); err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	if runErr != nil {
		return nil, fmt.Errorf("gateway: %w", runErr)
	}

	out.n = len(out.sends)
	out.air = w.air(out.n)
	out.arrivals = g.arrived()[arr0:]
	st1 := g.gw.Stats()
	snap1 := g.gw.Registry().Snapshot()
	out.detections = st1.Detections - st0.Detections
	out.shipped = st1.SegmentsShipped - st0.SegmentsShipped
	out.busy = st1.BusyRejects - st0.BusyRejects
	out.badReports = st1.BadReports - st0.BadReports
	out.edgeByTech = make(map[string]int)
	for _, t := range w.gwTechs {
		name := "gateway_frames_" + obs.SanitizeToken(t.Name()) + "_total"
		out.edgeByTech[t.Name()] = int(snap1.Counters[name] - snap0.Counters[name])
	}
	delta := func(name string) uint64 { return snap1.Counters[name] - snap0.Counters[name] }
	out.spoolDropped = delta("gateway_spool_dropped_total")
	out.replayed = delta("gateway_replayed_segments_total")
	out.reconnects = delta("gateway_reconnects_total")
	out.txBytes = rec.txBytes.Load() - tx0
	out.farmRejected = cl.fm.Snapshot().Rejected - rej0
	out.traced = rec.collect()
	return out, nil
}

func runClientPhase(w *workload, seed uint64, ph phase) (*phaseOut, error) {
	t0 := now()
	rec := newRecorder(ph.traced)
	cl, err := startCloud(rec)
	if err != nil {
		return nil, err
	}
	c, err := dialClient(cl.addr, seed, rec)
	if err != nil {
		return nil, err
	}
	var buf []complex128 // the codec is done with it when send returns
	for i, in := range w.warm {
		buf = in.expand(buf)
		if err := c.send(int64(i)*maxSegment, buf); err != nil {
			return nil, err
		}
	}
	if err := c.await(len(w.warm)); err != nil {
		return nil, err
	}
	out := &phaseOut{setupS: float64(now()-t0) / 1e9, base: int64(len(w.warm)) * maxSegment}

	c.mu.Lock()
	arr0 := len(c.arrivals)
	c.mu.Unlock()
	tx0 := rec.txBytes.Load()
	rej0 := cl.fm.Snapshot().Rejected
	rec.reset()

	out.start = now()
	for k := 0; ph.seconds > 0; k++ {
		p := w.at(k, out.base)
		due, ok := dueAt(w, ph, out.start, k)
		if !ok {
			break
		}
		buf = p.in.expand(buf)
		sleepUntil(due)
		s := now()
		if err := c.send(p.start, buf); err != nil {
			return nil, fmt.Errorf("send: %w", err)
		}
		out.sends = append(out.sends, calc.Send{Due: due, Start: s, Done: now()})
	}
	if err := c.await(len(out.sends)); err != nil {
		return nil, err
	}
	out.end = now()
	cerr := c.close()
	if err := cl.stop(); err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("client session: %w", cerr)
	}

	out.n = len(out.sends)
	out.air = w.air(out.n)
	c.mu.Lock()
	out.arrivals = append([]arrival(nil), c.arrivals[arr0:]...)
	out.busy = c.busy
	out.orderErr = c.orderErr
	c.mu.Unlock()
	out.detections = out.n
	out.shipped = out.n
	out.txBytes = rec.txBytes.Load() - tx0
	out.farmRejected = cl.fm.Snapshot().Rejected - rej0
	out.traced = rec.collect()
	return out, nil
}
