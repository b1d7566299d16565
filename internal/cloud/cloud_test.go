package cloud

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/farm"
	"repro/internal/phy"
	"repro/internal/phy/lora"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
)

const fs = 1e6

func techs() []phy.Technology {
	return []phy.Technology{lora.Default(), xbee.Default(), zwave.Default()}
}

// makeSegment builds a segment holding one clean XBee frame. Its start is
// seed × 1e6, so segments built from distinct seeds never share a replay
// cache entry within a session.
func makeSegment(t *testing.T, seed uint64) (backhaul.Segment, []byte) {
	t.Helper()
	gen := rng.New(seed)
	payload := []byte("cloud test frame")
	sig, err := xbee.Default().Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	samples := channel.Mix(len(sig)+20000, []channel.Emission{{Samples: sig, Offset: 8000, SNRdB: 15}}, gen, fs)
	return backhaul.Segment{Start: int64(seed) * 1_000_000, SampleRate: fs, Samples: samples, Trace: 1}, payload
}

func TestDecodeSegment(t *testing.T) {
	svc := NewService(techs())
	seg, payload := makeSegment(t, 1)
	report := svc.DecodeSegment(seg)
	if report.SegmentStart != 1_000_000 {
		t.Fatalf("segment start %d", report.SegmentStart)
	}
	if len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("frames %+v", report.Frames)
	}
	f := report.Frames[0]
	if f.Offset < 1_000_000+7990 || f.Offset > 1_000_000+8010 {
		t.Fatalf("absolute offset %d", f.Offset)
	}
	if n, _, _ := svc.Totals(); n != 1 {
		t.Fatalf("totals %d", n)
	}
}

func TestServeConnProtocol(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()

	conn := backhaul.NewConn(a)
	if _, err := handshake(conn, "t"); err != nil {
		t.Fatal(err)
	}
	seg, payload := makeSegment(t, 2)
	if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, 3, seg); err != nil {
		t.Fatal(err)
	}
	typ, data, err := conn.ReadMessage()
	if err != nil || typ != backhaul.MsgFrames {
		t.Fatalf("reply %v %v", typ, err)
	}
	report, err := backhaul.ParseFrames(data)
	if err != nil || report.Seq != 3 || len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("report %+v err %v", report, err)
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := conn.ReadMessage(); err != nil || typ != backhaul.MsgBye {
		t.Fatalf("bye ack %v %v", typ, err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestServeConnRejectsBadVersion(t *testing.T) {
	for _, h := range []backhaul.Hello{
		{Version: 99, SampleRate: fs, Epoch: 1},
		{Version: 1, SampleRate: fs, Epoch: 1},
		{Version: 2, SampleRate: fs, Epoch: 1},
		{Version: backhaul.Version, SampleRate: fs, Epoch: 0},
		{Version: backhaul.Version, SampleRate: 0, Epoch: 1},
	} {
		svc := NewService(techs())
		a, b := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- svc.ServeConn(b) }()
		conn := backhaul.NewConn(a)
		if err := conn.SendHello(h); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err == nil {
			t.Fatalf("hello %+v accepted", h)
		}
		a.Close()
		b.Close()
	}
}

func TestServeConnRejectsNonHelloFirst(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("non-hello first message accepted")
	}
}

func TestTCPServer(t *testing.T) {
	svc := NewService(techs())
	srv := &Server{Service: svc}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := backhaul.NewConn(nc)
	if _, err := handshake(conn, "tcp"); err != nil {
		t.Fatal(err)
	}
	seg, payload := makeSegment(t, 3)
	if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, 0, seg); err != nil {
		t.Fatal(err)
	}
	typ, data, err := conn.ReadMessage()
	if err != nil || typ != backhaul.MsgFrames {
		t.Fatalf("%v %v", typ, err)
	}
	report, _ := backhaul.ParseFrames(data)
	if len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
		t.Fatalf("report %+v", report)
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
}

func TestServeConnRejectsCorruptSegment(t *testing.T) {
	svc := NewService(techs())
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if _, err := handshake(conn, "t"); err != nil {
		t.Fatal(err)
	}
	// Garbage segment payload: too short to carry a header.
	if err := conn.WriteMessage(backhaul.MsgSegmentSeq, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("corrupt segment accepted")
	}
}

func TestDecodeSegmentEmptyNoise(t *testing.T) {
	svc := NewService(techs())
	gen := rng.New(44)
	samples := make([]complex128, 50000)
	for i := range samples {
		samples[i] = gen.Complex()
	}
	report := svc.DecodeSegment(backhaul.Segment{Start: 0, SampleRate: fs, Samples: samples})
	if len(report.Frames) != 0 {
		t.Fatalf("noise decoded into %d frames", len(report.Frames))
	}
}

func TestTCPServerConcurrentGateways(t *testing.T) {
	// Several gateways ship segments simultaneously; the service must
	// handle the sessions concurrently and account all frames.
	svc := NewService(techs())
	srv := &Server{Service: svc}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const gateways = 3
	errCh := make(chan error, gateways)
	for g := 0; g < gateways; g++ {
		go func(g int) {
			nc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer nc.Close()
			conn := backhaul.NewConn(nc)
			if _, err := handshake(conn, fmt.Sprintf("gw-%d", g)); err != nil {
				errCh <- err
				return
			}
			seg, payload := makeSegment(t, uint64(10+g))
			if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, 0, seg); err != nil {
				errCh <- err
				return
			}
			typ, data, err := conn.ReadMessage()
			if err != nil || typ != backhaul.MsgFrames {
				errCh <- err
				return
			}
			report, err := backhaul.ParseFrames(data)
			if err != nil || len(report.Frames) != 1 || !bytes.Equal(report.Frames[0].Payload, payload) {
				errCh <- err
				return
			}
			errCh <- conn.SendBye()
		}(g)
	}
	for g := 0; g < gateways; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if n, _, _ := svc.Totals(); n != gateways {
		t.Fatalf("decoded %d frames across %d gateways", n, gateways)
	}
}

// TestServeConnRejectsHostileSegment ships CRC-valid segments the decoder
// must never see on a 1 MHz session: a sample rate other than the hello's
// (rate 1000 used to panic a farm worker in the LoRa demodulator; NaN
// used to grow the decoder pool without bound) and a segment without a
// trace ID. Each must end the session with an error, never reach the
// decoder, and count once on cloud_segments_invalid_total.
func TestServeConnRejectsHostileSegment(t *testing.T) {
	good, _ := makeSegment(t, 4)
	cases := map[string]func(*backhaul.Segment){
		"rate 1000": func(s *backhaul.Segment) { s.SampleRate = 1000 },
		"rate 0":    func(s *backhaul.Segment) { s.SampleRate = 0 },
		"rate NaN":  func(s *backhaul.Segment) { s.SampleRate = math.NaN() },
		"rate +Inf": func(s *backhaul.Segment) { s.SampleRate = math.Inf(1) },
		"trace 0":   func(s *backhaul.Segment) { s.Trace = 0 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			svc := NewService(techs())
			var decodes atomic.Int32
			svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 4, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
				decodes.Add(1)
				return svc.DecodeFunc()(ctx, seg)
			}})
			defer svc.Close()
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			errCh := make(chan error, 1)
			go func() { errCh <- svc.ServeConn(b) }()
			conn := backhaul.NewConn(a)
			if _, err := handshake(conn, "hostile"); err != nil {
				t.Fatal(err)
			}
			seg := good
			mutate(&seg)
			if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, 0, seg); err != nil {
				t.Fatal(err)
			}
			if err := <-errCh; err == nil {
				t.Fatal("hostile segment accepted")
			}
			if n := svc.Registry().Counter("cloud_segments_invalid_total").Value(); n != 1 {
				t.Fatalf("cloud_segments_invalid_total = %d, want 1", n)
			}
			svc.Close()
			if n := decodes.Load(); n != 0 {
				t.Fatalf("hostile segment reached the decoder %d times", n)
			}
		})
	}
}
