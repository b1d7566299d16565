package gateway

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/backhaul"
	"repro/internal/channel"
	"repro/internal/cloud"
	"repro/internal/farm"
	"repro/internal/frontend"
	"repro/internal/phy/xbee"
	"repro/internal/rng"
)

// shipCapture builds a capture holding one XBee packet that the gateway
// will detect and ship.
func shipCapture(t *testing.T, seed uint64, payload []byte) []complex128 {
	t.Helper()
	gen := rng.New(seed)
	sig, err := xbee.Default().Modulate(payload, fs)
	if err != nil {
		t.Fatal(err)
	}
	return channel.Mix(len(sig)+60000, []channel.Emission{{Samples: sig, Offset: 30000, SNRdB: 12}}, gen, fs)
}

func TestRunWindowedPipelineWithFarm(t *testing.T) {
	// A gateway pipelines several captures' segments into a farm-backed
	// cloud; every segment must come back as a frames report, none as busy.
	ts := techs()
	g, err := New(Config{Techs: ts, Frontend: frontend.Ideal(fs), Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	svc := cloud.NewService(ts)
	svc.StartFarm(farm.Config{Workers: 2, QueueDepth: 8})
	defer svc.Close()

	const captureCount = 3
	payloads := [][]byte{[]byte("capture zero"), []byte("capture one"), []byte("capture two")}
	captures := make(chan []complex128, captureCount)
	for i := 0; i < captureCount; i++ {
		captures <- shipCapture(t, uint64(40+i), payloads[i])
	}
	close(captures)

	var reports []backhaul.FramesReport
	runPiped(t, g, captures, func(r backhaul.FramesReport) {
		reports = append(reports, r)
	}, svc.ServeConn)
	st := g.Stats()
	if st.SegmentsShipped == 0 {
		t.Fatal("nothing shipped")
	}
	if len(reports) != st.SegmentsShipped {
		t.Fatalf("%d reports for %d shipped segments", len(reports), st.SegmentsShipped)
	}
	// Replies must be sequenced in shipping order.
	for i, r := range reports {
		if r.Seq != uint64(i) {
			t.Fatalf("report %d has seq %d", i, r.Seq)
		}
	}
	got := map[string]bool{}
	for _, r := range reports {
		for _, f := range r.Frames {
			got[string(f.Payload)] = true
		}
	}
	for _, p := range payloads {
		if !got[string(p)] {
			t.Fatalf("payload %q never reported (got %v)", p, got)
		}
	}
	if st.BusyRejects != 0 || st.BadReports != 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, _, fst := svc.Totals(); int(fst.Admitted) != st.SegmentsShipped || fst.Rejected != 0 {
		t.Fatalf("farm stats %+v vs shipped %d", fst, st.SegmentsShipped)
	}
}

func TestRunCountsBadReports(t *testing.T) {
	// A misbehaving cloud precedes each segment's answer with an
	// unparseable frames payload; the gateway must count it instead of
	// silently dropping it.
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs)})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(chan []complex128, 1)
	captures <- shipCapture(t, 50, []byte("garbled reply"))
	close(captures)

	runPiped(t, g, captures, nil, func(rw io.ReadWriter) error {
		conn := backhaul.NewConn(rw)
		for {
			typ, payload, err := conn.ReadMessage()
			if err != nil {
				return err
			}
			switch typ {
			case backhaul.MsgHello:
				if err := conn.SendHelloAck(backhaul.HelloAck{Version: backhaul.Version}); err != nil {
					return err
				}
			case backhaul.MsgSegmentSeq:
				seq, seg, err := backhaul.DecodeSegmentSeq(payload)
				if err != nil {
					return err
				}
				// Not JSON: ParseFrames must fail on the gateway.
				if err := conn.WriteMessage(backhaul.MsgFrames, []byte{0xff, 0xfe}); err != nil {
					return err
				}
				// The real answer follows so the window drains.
				if err := conn.SendFrames(backhaul.FramesReport{SegmentStart: seg.Start, Seq: seq}); err != nil {
					return err
				}
			case backhaul.MsgBye:
				return conn.SendBye()
			}
		}
	})
	st := g.Stats()
	if st.SegmentsShipped == 0 {
		t.Fatal("nothing shipped")
	}
	if st.BadReports != st.SegmentsShipped {
		t.Fatalf("bad reports %d, want %d", st.BadReports, st.SegmentsShipped)
	}
}

func TestRunBusyRejectCounted(t *testing.T) {
	// A "cloud" that rejects every segment with busy: the gateway must
	// count the rejects, free its window, and finish the session cleanly.
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(chan []complex128, 1)
	captures <- shipCapture(t, 51, []byte("rejected"))
	close(captures)

	runPiped(t, g, captures, nil, func(rw io.ReadWriter) error {
		conn := backhaul.NewConn(rw)
		for {
			typ, payload, err := conn.ReadMessage()
			if err != nil {
				return err
			}
			switch typ {
			case backhaul.MsgHello:
				if err := conn.SendHelloAck(backhaul.HelloAck{Version: backhaul.Version}); err != nil {
					return err
				}
			case backhaul.MsgSegmentSeq:
				seq, _, err := backhaul.DecodeSegmentSeq(payload)
				if err != nil {
					return err
				}
				if err := conn.SendBusy(seq); err != nil {
					return err
				}
			case backhaul.MsgBye:
				return conn.SendBye()
			}
		}
	})
	st := g.Stats()
	if st.SegmentsShipped == 0 || st.BusyRejects != st.SegmentsShipped {
		t.Fatalf("stats %+v", st)
	}
}

func TestLikelyCollisionIgnoresDecodedTech(t *testing.T) {
	g, err := New(Config{Techs: techs(), Frontend: frontend.Ideal(fs), EdgeDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(52)
	payload := []byte("clean xbee frame")
	sig, _ := xbee.Default().Modulate(payload, fs)
	samples := channel.Mix(len(sig)+20000, []channel.Emission{{Samples: sig, Offset: 8000, SNRdB: 15}}, gen, fs)
	frames, _ := g.edge.Decode(samples)
	if len(frames) != 1 || !bytes.Equal(frames[0].Payload, payload) {
		t.Fatalf("edge decode %+v", frames)
	}
	// The segment contains exactly the decoded packet: its own preamble
	// score must not be mistaken for a second colliding transmission.
	if g.likelyCollision(samples, frames[0]) {
		t.Fatal("clean single-tech segment classified as collision")
	}
}
