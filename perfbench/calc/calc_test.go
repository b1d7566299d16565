package calc

import (
	"math"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

// percentile is the nearest-rank reference Tail is checked against: the
// smallest sample with at least p percent of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1 // 1e-9 absorbs 0.9*100 = 90.00000000000001
	return s[max(i, 0)]
}

func TestMedianAndPercentile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := seq(100) // 1..100
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Max(xs) != 100 || Max(nil) != 0 {
		t.Errorf("Max = %v", Max(xs))
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{n: 0},
		{n: 19},                    // the tail would fall below the median
		{n: 20, pct: 50, ok: true}, // smallest sample with a tail
		{n: 30, pct: 100 * 20.0 / 30, ok: true},
		{n: 100, pct: 90, ok: true},
		{n: 1000, pct: 99, ok: true},
	}
	for _, c := range cases {
		xs := seq(c.n) // 1..n
		v, pct, beyond, ok := Tail(xs)
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: got p%v (ok %v), want p%v (ok %v)", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		// Exactly MinBeyond samples lie strictly above the value, and the
		// value is the nearest-rank percentile it claims to be.
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if beyond != MinBeyond || above != MinBeyond {
			t.Errorf("n=%d: %d reported and %d actual samples beyond, want %d", c.n, beyond, above, MinBeyond)
		}
		if p := percentile(xs, pct); p != v {
			t.Errorf("n=%d: value %v is not the p%v value %v", c.n, v, pct, p)
		}
	}
}

func TestMatcherClaimsEachPacketOnce(t *testing.T) {
	pk := []Packet{
		{Tech: "xbee", Payload: []byte{1, 2}, Start: 1000, End: 2000},
		{Tech: "zwave", Payload: []byte{9}, Start: 1500, End: 2500},
		// The same payload again one input pool later: only the offset
		// tells the two apart.
		{Tech: "xbee", Payload: []byte{1, 2}, Start: 1_000_000, End: 1_001_000},
		{Tech: "zwave", Payload: []byte{7}, Start: 5000, End: 6000},
	}
	m := NewMatcher(pk, 100_000)
	if idx, ok := m.Match(Frame{Tech: "xbee", Payload: []byte{1, 2}, Offset: 1_000_050, CRCOK: true}); !ok || idx != 2 {
		t.Fatalf("repeat payload matched %d (ok %v), want packet 2", idx, ok)
	}
	if idx, ok := m.Match(Frame{Tech: "xbee", Payload: []byte{1, 2}, Offset: 990, CRCOK: true}); !ok || idx != 0 {
		t.Fatalf("first payload matched %d (ok %v), want packet 0", idx, ok)
	}
	// A second copy of a claimed packet is spurious, not a second recovery.
	if _, ok := m.Match(Frame{Tech: "xbee", Payload: []byte{1, 2}, Offset: 1000, CRCOK: true}); ok {
		t.Fatal("duplicate frame claimed a packet twice")
	}
	// Wrong payload, wrong technology: spurious. CRC failures: ignored.
	m.Match(Frame{Tech: "zwave", Payload: []byte{1, 2}, Offset: 1000, CRCOK: true})
	m.Match(Frame{Tech: "zwave", Payload: []byte{9}, Offset: 1500, CRCOK: false})
	if m.Spurious != 2 {
		t.Errorf("spurious = %d, want 2", m.Spurious)
	}
	// zwave: 0 matched, 2 on air. Edge frames count by number, capped at
	// the technology's unmatched packets; xbee is already complete.
	if got := m.Recovered(map[string]int{"zwave": 5, "xbee": 3}); got != 4 {
		t.Errorf("recovered = %d, want 4 (2 xbee matched + 2 zwave counted)", got)
	}
	if got := m.Recovered(map[string]int{"zwave": 1}); got != 3 {
		t.Errorf("recovered = %d, want 3", got)
	}
	if m.Total() != 4 {
		t.Errorf("total = %d, want 4", m.Total())
	}
}

func TestMatcherToleranceAndNearest(t *testing.T) {
	pk := []Packet{
		{Tech: "xbee", Payload: []byte{5}, Start: 0, End: 10},
		{Tech: "xbee", Payload: []byte{5}, Start: 300, End: 310},
	}
	m := NewMatcher(pk, 100)
	if _, ok := m.Match(Frame{Tech: "xbee", Payload: []byte{5}, Offset: 150, CRCOK: true}); ok {
		t.Error("matched a packet farther than the tolerance")
	}
	if idx, _ := m.Match(Frame{Tech: "xbee", Payload: []byte{5}, Offset: 260, CRCOK: true}); idx != 1 {
		t.Errorf("matched %d, want the nearer packet 1", idx)
	}
}

func TestSelfTimeAndAttribution(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "segment", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ship", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "decode", Start: 20, End: 60}, // overlaps ship by 10
		{ID: 4, Parent: 1, Name: "reply", Start: 70, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "kill", Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	// Children cover [0,60) and [70,100): 90 of 100.
	want := map[int]int64{1: 10, 2: 30, 3: 30, 4: 50, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if u := Unattributed(spans[0], spans[1:4]); math.Abs(u-0.1) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.1", u)
	}
	// Contiguous children account for the whole root.
	root := Span{ID: 1, Start: 10, End: 50}
	kids := []Span{{Start: 10, End: 20}, {Start: 20, End: 45}, {Start: 45, End: 50}}
	if u := Unattributed(root, kids); u != 0 {
		t.Errorf("contiguous children leave %v unattributed", u)
	}
	if u := Unattributed(Span{Start: 5, End: 5}, nil); u != 0 {
		t.Errorf("zero-length root: %v", u)
	}
}

func TestLatenessSeparatesGeneratorFromBackpressure(t *testing.T) {
	sends := []Send{
		{Due: 0, Start: 2, Done: 3},       // generator 2 late
		{Due: 100, Start: 100, Done: 250}, // on time; the system takes 150
		{Due: 200, Start: 251, Done: 260}, // blocked by the previous hand-off until 250: 1 late, 50 stalled
		{Due: 300, Start: 307, Done: 310}, // generator 7 late
	}
	late, stalled := Lateness(sends)
	if late != 7 || stalled != 50 {
		t.Errorf("late %d stalled %d, want 7 and 50", late, stalled)
	}
	if l, s := Lateness(nil); l != 0 || s != 0 {
		t.Errorf("empty: %d %d", l, s)
	}
}
