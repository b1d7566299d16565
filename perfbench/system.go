package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/galiot"
	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/cloud"
	"repro/internal/detect"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// epoch anchors now(): monotonic nanoseconds since the process started.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// wallNanos is the clock the program's own instrumentation gets, as the
// galiot-gateway and galiot-cloud commands inject it.
func wallNanos() int64 { return time.Now().UnixNano() }

const (
	farmWorkers = 2  // one per CPU of the 2-CPU reference host
	farmQueue   = 64 // galiot-cloud's -queue default
	// warmTimeout bounds the warm-up; a warm-up that never answers is a
	// broken build, not a slow one.
	warmTimeout = 120 * time.Second
)

// side is one process side's always-on instrumentation, wired the way
// galiot-gateway and galiot-cloud wire theirs: a registry, a tracer feeding
// a trace store, an event journal and health checks.
type side struct {
	reg     *obs.Registry
	tracer  *obs.Tracer
	journal *obs.Journal
	health  *obs.Health
}

func newSide(site string) side {
	s := side{
		reg:     obs.NewRegistry(),
		tracer:  obs.NewTracer(0),
		journal: obs.NewJournal(0),
		health:  obs.NewHealth(),
	}
	s.tracer.SetClock(wallNanos)
	s.tracer.SetSite(site)
	s.journal.SetClock(wallNanos)
	traces := obs.NewTraceStore(obs.TraceStoreConfig{Obs: s.reg, Journal: s.journal})
	s.tracer.SetSink(traces.Ingest)
	return s
}

// detectCall is one timed Detect call.
type detectCall struct {
	start, end int64
	samples    int
}

// decodeRec is one timed decode, keyed by segment start.
type decodeRec struct {
	start, end int64
	samples    int
	frames     int
	stats      cancel.Stats
}

// recorder collects the traced run's timings at the public seams. With on
// false every wrapper is a plain pass-through that reads no clock, apart
// from the byte counts the end-to-end wire metric needs.
type recorder struct {
	on bool

	mu      sync.Mutex
	detects []detectCall
	decodes map[int64]decodeRec
	sends   map[uint64]int64 // sequence number -> start of its segment write

	txBytes    atomic.Int64 // bytes written by the gateway side
	writeBlock atomic.Int64 // ns inside gateway-side Write
	replyBlock atomic.Int64 // ns inside cloud-side Write
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, decodes: make(map[int64]decodeRec), sends: make(map[uint64]int64)}
}

// reset drops what the warm-up recorded, keeping the byte count's
// baseline to the caller.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.detects = nil
	r.decodes = make(map[int64]decodeRec)
	r.sends = make(map[uint64]int64)
	r.writeBlock.Store(0)
	r.replyBlock.Store(0)
}

// traced is what a traced phase's wrappers recorded.
type traced struct {
	detects    []detectCall
	decodes    map[int64]decodeRec
	sendAt     map[uint64]int64 // sequence number -> start of its segment write
	writeBlock int64            // ns inside gateway-side Write
	replyBlock int64            // ns inside cloud-side Write
}

// collect returns the recorded timings; the zero value when not tracing.
func (r *recorder) collect() traced {
	if !r.on {
		return traced{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return traced{
		detects:    append([]detectCall(nil), r.detects...),
		decodes:    r.decodes,
		sendAt:     r.sends,
		writeBlock: r.writeBlock.Load(),
		replyBlock: r.replyBlock.Load(),
	}
}

// timedDetector is the detect.Detector seam: gateway.Config.Detector.
type timedDetector struct {
	detect.Detector
	rec *recorder
}

func (d timedDetector) Detect(rx []complex128) []detect.Detection {
	if !d.rec.on {
		return d.Detector.Detect(rx)
	}
	t0 := now()
	out := d.Detector.Detect(rx)
	t1 := now()
	d.rec.mu.Lock()
	d.rec.detects = append(d.rec.detects, detectCall{start: t0, end: t1, samples: len(rx)})
	d.rec.mu.Unlock()
	return out
}

// wrapDecode is the farm.Config.Decode seam around Service.DecodeFunc().
func (r *recorder) wrapDecode(inner farm.DecodeFunc) farm.DecodeFunc {
	if !r.on {
		return inner
	}
	return func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		t0 := now()
		rep, st, err := inner(ctx, seg)
		t1 := now()
		r.mu.Lock()
		r.decodes[seg.Start] = decodeRec{start: t0, end: t1, samples: len(seg.Samples), frames: len(rep.Frames), stats: st}
		r.mu.Unlock()
		return rep, st, err
	}
}

// wireConn is the dialled net.Conn seam. It counts the bytes the gateway
// side writes, and when tracing it times each Write and, on the gateway,
// notes when each sequenced segment's message starts (backhaul writes a
// 5-byte header, then the payload, whose first 8 bytes are the sequence
// number). Only one goroutine writes to a backhaul connection.
type wireConn struct {
	net.Conn
	rec   *recorder
	parse bool // note segment sends from the byte stream (gateway side)

	hdrAt   int64 // start of the pending header write
	pending backhaul.MsgType
	inBody  bool
}

func (c *wireConn) Write(p []byte) (int, error) {
	if !c.rec.on {
		n, err := c.Conn.Write(p)
		c.rec.txBytes.Add(int64(n))
		return n, err
	}
	t0 := now()
	n, err := c.Conn.Write(p)
	c.rec.writeBlock.Add(now() - t0)
	c.rec.txBytes.Add(int64(n))
	if c.parse {
		c.observe(p, t0)
	}
	return n, err
}

// observe follows the message framing of the written bytes.
func (c *wireConn) observe(p []byte, t0 int64) {
	if !c.inBody {
		if len(p) == 5 && binary.BigEndian.Uint32(p[1:]) > 0 {
			c.pending, c.hdrAt, c.inBody = backhaul.MsgType(p[0]), t0, true
		}
		return
	}
	c.inBody = false
	if c.pending == backhaul.MsgSegmentSeq && len(p) >= 8 {
		seq := binary.BigEndian.Uint64(p)
		c.rec.mu.Lock()
		c.rec.sends[seq] = c.hdrAt
		c.rec.mu.Unlock()
	}
}

// replyConn is the cloud side of a session, handed out by wireListener:
// it times the cloud's reply writes when tracing.
type replyConn struct {
	net.Conn
	rec *recorder
}

func (c replyConn) Write(p []byte) (int, error) {
	if !c.rec.on {
		return c.Conn.Write(p)
	}
	t0 := now()
	n, err := c.Conn.Write(p)
	c.rec.replyBlock.Add(now() - t0)
	return n, err
}

// wireListener is the net.Listener seam given to cloud.Server.Serve.
type wireListener struct {
	net.Listener
	rec *recorder
}

func (l wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return replyConn{Conn: c, rec: l.rec}, nil
}

// arrival is one frames report and when it reached the gateway side.
type arrival struct {
	at  int64
	rep backhaul.FramesReport
}

// cloudSys is a running cloud: service, decode farm and TCP server.
type cloudSys struct {
	svc  *cloud.Service
	fm   *farm.Farm
	srv  *cloud.Server
	addr string
	done chan error
}

func startCloud(rec *recorder) (*cloudSys, error) {
	cs := newSide("cloud")
	svc := cloud.NewService(galiot.Technologies())
	svc.UseObs(cs.reg, cs.tracer)
	fm := svc.StartFarm(farm.Config{
		Workers:    farmWorkers,
		QueueDepth: farmQueue,
		Clock:      wallNanos,
		Decode:     rec.wrapDecode(svc.DecodeFunc()),
	})
	fm.RegisterHealth(cs.health, "cloud_farm_headroom")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	c := &cloudSys{
		svc:  svc,
		fm:   fm,
		srv:  &cloud.Server{Service: svc, Journal: cs.journal},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { c.done <- c.srv.Serve(wireListener{Listener: ln, rec: rec}) }()
	return c, nil
}

// stop closes the server, waits for its sessions and drains the farm.
func (c *cloudSys) stop() error {
	err := c.srv.Close()
	if serr := <-c.done; err == nil {
		err = serr
	}
	c.svc.Close()
	return err
}

// gatewaySys is a running gateway session: RunResilient over one
// loopback connection to the cloud.
type gatewaySys struct {
	gw       *gateway.Gateway
	captures chan []complex128
	runDone  chan error

	mu       sync.Mutex
	arrivals []arrival
}

func (g *gatewaySys) reports(r backhaul.FramesReport) {
	t := now()
	g.mu.Lock()
	g.arrivals = append(g.arrivals, arrival{at: t, rep: r})
	g.mu.Unlock()
}

func (g *gatewaySys) arrived() []arrival {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]arrival(nil), g.arrivals...)
}

func startGateway(w *workload, seed uint64, addr string, rec *recorder) (*gatewaySys, error) {
	gs := newSide(fmt.Sprintf("gw-%d", seed))
	det, err := detect.NewUniversal(w.gwTechs, fs, 0.08)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{
		ID:         fmt.Sprintf("gw-%d", seed),
		Techs:      w.gwTechs,
		Frontend:   frontend.Ideal(fs),
		Detector:   timedDetector{Detector: det, rec: rec},
		EdgeDecode: true,
		Obs:        gs.reg,
		Tracer:     gs.tracer,
		Journal:    gs.journal,
		Health:     gs.health,
	})
	if err != nil {
		return nil, err
	}
	g := &gatewaySys{gw: gw, captures: make(chan []complex128), runDone: make(chan error, 1)}
	rc := gateway.Resilient{
		Dial: func() (io.ReadWriteCloser, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &wireConn{Conn: c, rec: rec, parse: true}, nil
		},
		Retry: resilience.RetryPolicy{Seed: seed},
		Epoch: seed + 1,
	}
	go func() { g.runDone <- gw.RunResilient(rc, g.captures, g.reports) }()
	return g, nil
}

// warmGateway hands over the warm-up capture and waits until every segment
// it shipped is answered.
func (g *gatewaySys) warm(w *workload) error {
	select {
	case g.captures <- w.warm[0].expand(nil):
	case err := <-g.runDone:
		return fmt.Errorf("gateway session ended during warm-up: %v", err)
	}
	deadline := time.Now().Add(warmTimeout)
	for time.Now().Before(deadline) {
		st := g.gw.Stats()
		g.mu.Lock()
		n := len(g.arrivals)
		g.mu.Unlock()
		if st.SegmentsShipped > 0 && n >= st.SegmentsShipped {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("warm-up capture was not answered in time")
}

// client is the benchmark's own backhaul client for cloud-collisions: one
// v3 session on the public backhaul.Conn API, a shipping window like the
// gateway's, and a check that every segment gets exactly one reply, in
// send order.
type client struct {
	conn   net.Conn
	bc     *backhaul.Conn
	rec    *recorder
	window chan struct{}
	site   uint64

	mu       sync.Mutex
	starts   []int64 // segment start by sequence number
	arrivals []arrival
	busy     int
	replies  int
	orderErr error
	answered chan struct{} // one token per reply
	readDone chan error
}

func dialClient(addr string, seed uint64, rec *recorder) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cs := newSide("perfbench-client")
	wc := &wireConn{Conn: nc, rec: rec}
	bc := backhaul.NewConn(wc)
	bc.SetMetrics(backhaul.NewConnMetrics(cs.reg))
	var techs []string
	for _, t := range galiot.Technologies() {
		techs = append(techs, t.Name())
	}
	id := fmt.Sprintf("client-%d", seed)
	if err := bc.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: id, SampleRate: fs, Techs: techs, Epoch: seed + 1}); err != nil {
		_ = nc.Close() // the hello error is the one worth reporting
		return nil, err
	}
	typ, payload, err := bc.ReadMessage()
	if err == nil && typ != backhaul.MsgHelloAck {
		err = fmt.Errorf("expected hello ack, got message type %d", typ)
	}
	var ack backhaul.HelloAck
	if err == nil {
		ack, err = backhaul.ParseHelloAck(payload)
	}
	if err != nil {
		_ = nc.Close() // the hello error is the one worth reporting
		return nil, fmt.Errorf("hello: %w", err)
	}
	window := gateway.DefaultWindow
	if ack.Window > 0 && ack.Window < window {
		window = ack.Window
	}
	c := &client{
		conn:   nc,
		bc:     bc,
		rec:    rec,
		window: make(chan struct{}, window),
		site:   obs.SiteID(id),
		// Sized past any phase's reply count: await drains it only after the
		// phase's last send, and the reader must never block on it.
		answered: make(chan struct{}, 1<<16),
		readDone: make(chan error, 1),
	}
	go c.read()
	return c, nil
}

// read consumes replies until the bye, checking their order.
func (c *client) read() {
	for {
		typ, payload, err := c.bc.ReadMessage()
		if err != nil {
			c.readDone <- err
			return
		}
		t := now()
		switch typ {
		case backhaul.MsgFrames:
			rep, err := backhaul.ParseFrames(payload)
			if err != nil {
				c.readDone <- err
				return
			}
			c.mu.Lock()
			c.checkOrder(rep.Seq, rep.SegmentStart, true)
			c.arrivals = append(c.arrivals, arrival{at: t, rep: rep})
			c.mu.Unlock()
		case backhaul.MsgBusy:
			seq, err := backhaul.ParseBusy(payload)
			if err != nil {
				c.readDone <- err
				return
			}
			c.mu.Lock()
			c.busy++
			c.checkOrder(seq, 0, false)
			c.mu.Unlock()
		case backhaul.MsgBye:
			c.readDone <- nil
			return
		default:
			c.readDone <- fmt.Errorf("unexpected message type %d", typ)
			return
		}
		<-c.window
		c.answered <- struct{}{}
	}
}

// checkOrder verifies that the reply is the next one expected: replies
// come one per segment, in send order. Callers hold c.mu.
func (c *client) checkOrder(seq uint64, start int64, frames bool) {
	next := uint64(c.replies)
	c.replies++
	switch {
	case c.orderErr != nil:
	case seq != next || int(seq) >= len(c.starts):
		c.orderErr = fmt.Errorf("reply for seq %d, want %d", seq, next)
	case frames && start != c.starts[seq]:
		c.orderErr = fmt.Errorf("reply for seq %d carries segment start %d, want %d", seq, start, c.starts[seq])
	}
}

// send ships one segment, waiting for a window slot first, and returns
// when the write completes.
func (c *client) send(start int64, iq []complex128) error {
	c.window <- struct{}{}
	c.mu.Lock()
	seq := uint64(len(c.starts))
	c.starts = append(c.starts, start)
	c.mu.Unlock()
	if c.rec.on {
		t := now()
		c.rec.mu.Lock()
		c.rec.sends[seq] = t
		c.rec.mu.Unlock()
	}
	seg := backhaul.Segment{Start: start, SampleRate: fs, Samples: iq, Trace: obs.MintTraceID(c.site, start)}
	_, err := c.bc.SendSegmentSeq(backhaul.DefaultCodec, seq, seg)
	return err
}

// await blocks until n more replies have arrived.
func (c *client) await(n int) error {
	timeout := time.After(warmTimeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.answered:
		case err := <-c.readDone:
			return fmt.Errorf("session ended with replies outstanding: %v", err)
		case <-timeout:
			return errors.New("replies outstanding after timeout")
		}
	}
	return nil
}

// close says bye, waits for the cloud's bye and closes the connection.
func (c *client) close() error {
	err := c.bc.SendBye()
	if rerr := <-c.readDone; err == nil {
		err = rerr
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	return err
}
