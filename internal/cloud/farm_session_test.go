package cloud

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/backhaul"
	"repro/internal/cancel"
	"repro/internal/farm"
)

// sessionReply is one server answer on a session: a frames report or a
// busy reject, tagged with its segment sequence number.
type sessionReply struct {
	seq    uint64
	busy   bool
	report backhaul.FramesReport
}

// readReplies drains one session until the bye ack, collecting frames
// and busy replies in arrival order.
func readReplies(conn *backhaul.Conn) ([]sessionReply, error) {
	var replies []sessionReply
	for {
		typ, payload, err := conn.ReadMessage()
		if err != nil {
			return replies, err
		}
		switch typ {
		case backhaul.MsgFrames:
			report, err := backhaul.ParseFrames(payload)
			if err != nil {
				return replies, err
			}
			replies = append(replies, sessionReply{seq: report.Seq, report: report})
		case backhaul.MsgBusy:
			seq, err := backhaul.ParseBusy(payload)
			if err != nil {
				return replies, err
			}
			replies = append(replies, sessionReply{seq: seq, busy: true})
		case backhaul.MsgBye:
			return replies, nil
		default:
			return replies, fmt.Errorf("unexpected message type %d", typ)
		}
	}
}

// handshake opens a session on conn (epoch 1) and returns the cloud's ack.
func handshake(conn *backhaul.Conn, id string) (backhaul.HelloAck, error) {
	if err := conn.SendHello(backhaul.Hello{Version: backhaul.Version, GatewayID: id, SampleRate: fs, Epoch: 1}); err != nil {
		return backhaul.HelloAck{}, err
	}
	typ, payload, err := conn.ReadMessage()
	if err != nil {
		return backhaul.HelloAck{}, err
	}
	if typ != backhaul.MsgHelloAck {
		return backhaul.HelloAck{}, fmt.Errorf("expected hello ack, got message type %d", typ)
	}
	return backhaul.ParseHelloAck(payload)
}

func TestFarmPipelinedSession(t *testing.T) {
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()
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
	ack, err := handshake(conn, "pipelined")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != backhaul.Version || ack.Window != 8 || ack.Workers != 2 {
		t.Fatalf("hello ack %+v", ack)
	}

	// Ship the whole window before reading anything back: the session must
	// pipeline, and the replies must come back in sequence order.
	const segments = 3
	payloads := make([][]byte, segments)
	done := make(chan struct{})
	var replies []sessionReply
	var readErr error
	go func() {
		defer close(done)
		replies, readErr = readReplies(conn)
	}()
	for i := 0; i < segments; i++ {
		seg, payload := makeSegment(t, uint64(20+i))
		payloads[i] = payload
		if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, uint64(i), seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	<-done
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(replies) != segments {
		t.Fatalf("%d replies for %d segments: %+v", len(replies), segments, replies)
	}
	for i, r := range replies {
		if r.seq != uint64(i) || r.busy {
			t.Fatalf("reply %d out of order or rejected: %+v", i, r)
		}
		if len(r.report.Frames) != 1 || !bytes.Equal(r.report.Frames[0].Payload, payloads[i]) {
			t.Fatalf("reply %d report %+v", i, r.report)
		}
	}
	if n, _, fst := svc.Totals(); n != segments || fst.Admitted != segments || fst.Completed != segments || fst.Rejected != 0 {
		t.Fatalf("totals n=%d farm=%+v", n, fst)
	}
}

func TestFarmBusyReject(t *testing.T) {
	// One worker, one queue slot, and a decode gated on a channel: the
	// third in-flight segment must be rejected with MsgBusy, deterministically.
	gate := make(chan struct{})
	dispatched := make(chan struct{}, 8)
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 1, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		dispatched <- struct{}{}
		<-gate
		return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{}, nil
	}})
	defer svc.Close()

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(b) }()
	conn := backhaul.NewConn(a)
	if _, err := handshake(conn, "busy"); err != nil {
		t.Fatal(err)
	}
	// Distinct starts, so no segment is answered from the replay cache.
	tiny := func(seq uint64) backhaul.Segment {
		return backhaul.Segment{Start: int64(seq), SampleRate: fs, Samples: make([]complex128, 16), Trace: 1}
	}
	// Segment 0 occupies the worker (wait for its dispatch so the queue is
	// empty again), segment 1 the only queue slot; their replies are parked
	// behind the gate, so nothing is written yet and the busy reject for
	// segment 2 queues in the sequencer behind them.
	if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, 0, tiny(0)); err != nil {
		t.Fatal(err)
	}
	<-dispatched
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, seq, tiny(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// The session reads segment 2 before admitting it; open the gate only
	// once the reject has happened, or the worker could free the queue
	// slot first.
	for deadline := time.Now().Add(10 * time.Second); svc.Farm().Snapshot().Rejected == 0; {
		if time.Now().After(deadline) {
			t.Fatal("segment 2 was never rejected")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	replies, err := readReplies(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("replies %+v", replies)
	}
	for i, r := range replies {
		if r.seq != uint64(i) {
			t.Fatalf("reply order %+v", replies)
		}
	}
	if replies[0].busy || replies[1].busy || !replies[2].busy {
		t.Fatalf("busy pattern %+v", replies)
	}
	if _, _, fst := svc.Totals(); fst.Rejected != 1 || fst.Admitted != 2 || fst.Completed != 2 {
		t.Fatalf("farm stats %+v", fst)
	}
}

func TestFarmConcurrentGatewaysRace(t *testing.T) {
	// M gateways pipeline K segments each through one TCP server backed by
	// a shared farm; every segment must be acked in order with its frame,
	// and the totals must add up.
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 4, QueueDepth: 32})
	defer svc.Close()
	srv := &Server{Service: svc}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		gateways = 3
		segments = 3
	)
	errCh := make(chan error, gateways)
	for g := 0; g < gateways; g++ {
		go func(g int) {
			errCh <- func() error {
				nc, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					return err
				}
				defer nc.Close()
				conn := backhaul.NewConn(nc)
				if _, err := handshake(conn, fmt.Sprintf("gw%d", g)); err != nil {
					return err
				}
				payloads := make([][]byte, segments)
				done := make(chan struct{})
				var replies []sessionReply
				var readErr error
				go func() {
					defer close(done)
					replies, readErr = readReplies(conn)
				}()
				for i := 0; i < segments; i++ {
					seg, payload := makeSegment(t, uint64(100+10*g+i))
					payloads[i] = payload
					if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, uint64(i), seg); err != nil {
						return err
					}
				}
				if err := conn.SendBye(); err != nil {
					return err
				}
				<-done
				if readErr != nil {
					return readErr
				}
				if len(replies) != segments {
					return fmt.Errorf("gateway %d: %d replies", g, len(replies))
				}
				for i, r := range replies {
					if r.seq != uint64(i) || r.busy {
						return fmt.Errorf("gateway %d reply %d: %+v", g, i, r)
					}
					if len(r.report.Frames) != 1 || !bytes.Equal(r.report.Frames[0].Payload, payloads[i]) {
						return fmt.Errorf("gateway %d reply %d report %+v", g, i, r.report)
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < gateways; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	n, _, fst := svc.Totals()
	if n != gateways*segments {
		t.Fatalf("decoded %d frames, want %d", n, gateways*segments)
	}
	if fst.Admitted != gateways*segments || fst.Completed != gateways*segments || fst.Rejected != 0 {
		t.Fatalf("farm stats %+v", fst)
	}
}

func TestFarmDrainOnServerClose(t *testing.T) {
	// Segments already admitted when Server.Close begins must still be
	// decoded and answered: Close waits for the session, the session's bye
	// barrier waits for the farm.
	gate := make(chan struct{})
	dispatched := make(chan struct{}, 8)
	svc := NewService(techs())
	svc.StartFarm(farm.Config{Workers: 1, QueueDepth: 8, Decode: func(ctx context.Context, seg backhaul.Segment) (backhaul.FramesReport, cancel.Stats, error) {
		dispatched <- struct{}{}
		<-gate
		return backhaul.FramesReport{SegmentStart: seg.Start}, cancel.Stats{}, nil
	}})
	srv := &Server{Service: svc}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := backhaul.NewConn(nc)
	if _, err := handshake(conn, "drain"); err != nil {
		t.Fatal(err)
	}
	const segments = 3
	for i := 0; i < segments; i++ {
		// Distinct starts, so no segment is answered from the replay cache.
		tiny := backhaul.Segment{Start: int64(i), SampleRate: fs, Samples: make([]complex128, 16), Trace: 1}
		if _, err := conn.SendSegmentSeq(backhaul.DefaultCodec, uint64(i), tiny); err != nil {
			t.Fatal(err)
		}
	}
	<-dispatched // all three admitted or decoding, none answered yet
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	close(gate)
	if err := conn.SendBye(); err != nil {
		t.Fatal(err)
	}
	replies, err := readReplies(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if len(replies) != segments {
		t.Fatalf("shutdown lost segments: %d of %d answered", len(replies), segments)
	}
	for i, r := range replies {
		if r.seq != uint64(i) || r.busy {
			t.Fatalf("reply %d: %+v", i, r)
		}
	}
	if _, _, fst := svc.Totals(); fst.Completed != segments {
		t.Fatalf("farm stats %+v", fst)
	}
}
