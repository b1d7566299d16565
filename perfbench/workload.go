package main

import (
	"fmt"
	"math"

	"repro/galiot"
	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/phy/xbee"
	"repro/internal/phy/zwave"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/perfbench/calc"
)

const (
	fs = galiot.SampleRate
	// captureLen is galiot-gateway's capture size (2^18 samples, ~0.26 s).
	captureLen = 1 << 18
	// sparsePool and collisionPool are how many distinct captures
	// (gateway-sparse) and collision pairs (cloud-collisions) a workload
	// renders; longer runs cycle through the pool. Every input sits at its
	// own absolute sample position, so a repeated input is still a new
	// segment to the system. cloud-collisions renders more than a run's
	// capacity phase gets through, so no decode repeats within it and the
	// run averages over as many distinct collisions as it can; a sparse
	// capture is 2 MiB, so its pool is kept smaller.
	sparsePool    = 32
	collisionPool = 96
	// warmSeed renders the warm-up inputs. It is fixed, not the run's
	// seed: the warm-up must ship a segment to the cloud on every run so
	// that set-up always builds the same lazily built state.
	warmSeed = 0x5EED
)

// input is one rendered capture (gateway workloads) or segment
// (cloud-collisions) with the packets on air in it, at offsets relative to
// its first sample. The I/Q is kept as complex64 to halve the pool's
// memory; expand widens it into a reusable buffer right before hand-off.
type input struct {
	iq      []complex64
	packets []sim.Packet
}

func narrow(iq []complex128) []complex64 {
	out := make([]complex64, len(iq))
	for i, v := range iq {
		out[i] = complex64(v)
	}
	return out
}

// expand widens the input's I/Q into buf (grown as needed) and returns it.
func (in input) expand(buf []complex128) []complex128 {
	if cap(buf) < len(in.iq) {
		buf = make([]complex128, len(in.iq))
	}
	buf = buf[:len(in.iq)]
	for i, v := range in.iq {
		buf[i] = complex128(v)
	}
	return buf
}

// workload is one named traffic mix: its inputs, rendered before timing
// from the seed alone, and the paced phase's offered air rate.
type workload struct {
	name    string
	gateway bool // gateway pipeline (captures) vs benchmark client (segments)
	// gwTechs is the gateway's technology set; the cloud always decodes
	// galiot.Technologies(), as galiot-cloud does.
	gwTechs []phy.Technology
	// pacedRate is the paced phase's offered load in seconds of air per
	// wall-clock second, set below the capacity measured on a 2-CPU host.
	pacedRate float64
	// floor is the lowest recovered_frac the output check accepts.
	floor float64
	pool  []input
	warm  []input
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"gateway-sparse", "cloud-collisions"}

// gatewayTechs is the gateway workloads' technology set. LoRa is left out
// on purpose (see README.md, findings 2 and 3).
func gatewayTechs() []phy.Technology { return []phy.Technology{xbee.Default(), zwave.Default()} }

// newWorkload renders the named workload. render=false builds only the
// warm-up inputs (the set-up child process needs nothing else).
func newWorkload(name string, seed uint64, render bool) (*workload, error) {
	w := &workload{name: name}
	var err error
	switch name {
	case "gateway-sparse":
		w.gateway, w.gwTechs, w.pacedRate, w.floor = true, gatewayTechs(), 0.4, 0.9
		if render {
			w.pool, err = renderSparse(w.gwTechs, rng.New(seed).Split(1))
		}
	case "cloud-collisions":
		w.pacedRate, w.floor = 0.09, 0.95
		if render {
			w.pool, err = renderCollisions(rng.New(seed).Split(3), collisionPool)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if w.gateway {
		w.warm, err = renderWarmCapture(w.gwTechs)
	} else {
		w.warm, err = renderCollisions(rng.New(warmSeed), 1)
	}
	return w, err
}

// emission is one packet to place in a capture.
type emission struct {
	tech  phy.Technology
	off   int
	snr   float64
	bytes int // payload length; 0 draws 4..16 bytes, as sim.GenTraffic does
}

// renderCapture modulates fresh random payloads for the emissions and mixes
// them into one capture over unit-power noise.
func renderCapture(ems []emission, gen *rng.Rand) (input, error) {
	var mixed []channel.Emission
	var pks []sim.Packet
	for _, e := range ems {
		n := e.bytes
		if n == 0 {
			n = 4 + gen.Intn(13)
		}
		payload := make([]byte, n)
		gen.Bytes(payload)
		sig, err := e.tech.Modulate(payload, fs)
		if err != nil {
			return input{}, err
		}
		if e.off+len(sig) > captureLen {
			e.off = captureLen - len(sig)
		}
		mixed = append(mixed, channel.Emission{Samples: sig, Offset: e.off, SNRdB: e.snr, Phase: 2 * math.Pi * gen.Float64()})
		pks = append(pks, sim.Packet{Tech: e.tech.Name(), Payload: payload, Offset: e.off, Length: len(sig), SNRdB: e.snr})
	}
	return input{iq: narrow(channel.Mix(captureLen, mixed, gen.Split(0xDEAD), fs)), packets: pks}, nil
}

// uniform draws an integer from [lo, hi).
func uniform(gen *rng.Rand, lo, hi int) int { return lo + gen.Intn(hi-lo) }

// renderSparse renders captures whose packets arrive alone, with one
// cross-technology collision in every other capture. The packet counts are
// fixed per capture and only the payloads, positions, SNRs, phases and
// noise come from the seed: Poisson arrivals would make the number of
// shipped segments — each worth seconds of cloud decode — swing by a third
// between seeds at this run length (README.md, "Workloads").
//
// Capture k holds a packet of techs[k%2] early in the capture and, at
// least 110k samples after it, either a packet of the other technology
// (even k) or both technologies overlapping (odd k). A segment runs from
// maxPacket/2 (21k samples) before a packet's first detection to
// 3·maxPacket/2 (63k) after its last, and detections span the packet
// (up to ~13k samples for the overlapping pair), so the two segments never
// merge; the second one ends early enough that the stream ships it on the
// capture's own push, and the next capture's first segment starts after
// it ends.
func renderSparse(techs []phy.Technology, gen *rng.Rand) ([]input, error) {
	pool := make([]input, sparsePool)
	for k := range pool {
		g := gen.Split(uint64(k))
		snr := func() float64 { return 10 + 5*g.Float64() }
		a := uniform(g, 4000, 50000)
		b := uniform(g, a+110000, 165000)
		ems := []emission{{techs[k%2], a, snr(), 0}}
		if k%2 == 0 {
			ems = append(ems, emission{techs[(k+1)%2], b, snr(), 0})
		} else {
			// The collision is fixed at the ablation-kill settings (12 dB,
			// 8-byte payloads): its cloud decode is most of a run's work,
			// and fixing them keeps that work alike from seed to seed.
			ems = append(ems, emission{techs[0], b, 12, 8}, emission{techs[1], b + uniform(g, 0, 3000), 12, 8})
		}
		in, err := renderCapture(ems, g)
		if err != nil {
			return nil, err
		}
		pool[k] = in
	}
	return pool, nil
}

// renderCollisions renders n pairs of segments: a 3-way LoRa/XBee/Z-Wave
// collision (the ablation-kill mix) followed by a 2-way XBee/Z-Wave one.
func renderCollisions(gen *rng.Rand, n int) ([]input, error) {
	techs := galiot.Technologies() // LoRa, XBee, Z-Wave
	out := make([]input, 0, 2*n)
	for i := 0; i < n; i++ {
		for _, specs := range [][]sim.CollisionSpec{
			{
				{Tech: techs[0], SNRdB: 12, PayloadLen: 8},
				{Tech: techs[1], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
				{Tech: techs[2], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.1},
			},
			{
				{Tech: techs[1], SNRdB: 12, PayloadLen: 8},
				{Tech: techs[2], SNRdB: 12, PayloadLen: 8, OffsetFrac: 0.05},
			},
		} {
			scen, err := sim.GenCollision(specs, fs, 4000, gen.Split(uint64(len(out))))
			if err != nil {
				return nil, err
			}
			out = append(out, input{iq: narrow(scen.Capture), packets: scen.Packets})
		}
	}
	return out, nil
}

// renderWarmCapture renders the gateway warm-up capture: an XBee and a
// Z-Wave frame overlapping early in the capture, so the detector, the edge
// decoder and its collision check run and the segment is shipped to the
// cloud decoder. The packets end early enough that the stream emits the
// segment on this capture instead of holding it back for the next one.
func renderWarmCapture(techs []phy.Technology) ([]input, error) {
	in, err := renderCapture([]emission{{techs[0], 8000, 12, 8}, {techs[1], 11000, 12, 8}}, rng.New(warmSeed))
	return []input{in}, err
}

// placed is the k-th input of a phase at its absolute position.
type placed struct {
	in    input
	start int64
}

// at returns phase input k. Gateway captures follow the warm-up capture
// back to back on the stream's sample axis; client segments are laid end to
// end after the warm-up segments.
func (w *workload) at(k int, base int64) placed {
	in := w.pool[k%len(w.pool)]
	if w.gateway {
		return placed{in: in, start: base + int64(k)*captureLen}
	}
	// Segment starts only need to be distinct and increasing; a fixed
	// stride keeps them computable without a running sum.
	return placed{in: in, start: base + int64(k)*maxSegment}
}

// maxSegment bounds a client segment's length (the 3-way collision is
// 51264 samples); it is the stride between client segment starts.
const maxSegment = 1 << 16

// groundTruth places the packets of the first n phase inputs.
func (w *workload) groundTruth(n int, base int64) []calc.Packet {
	var out []calc.Packet
	for k := 0; k < n; k++ {
		p := w.at(k, base)
		for _, pk := range p.in.packets {
			s := p.start + int64(pk.Offset)
			out = append(out, calc.Packet{Tech: pk.Tech, Payload: pk.Payload, Start: s, End: s + int64(pk.Length)})
		}
	}
	return out
}

// air returns the seconds of air in the first n phase inputs.
func (w *workload) air(n int) float64 {
	total := 0
	for k := 0; k < n; k++ {
		total += len(w.at(k, 0).in.iq)
	}
	return float64(total) / fs
}
