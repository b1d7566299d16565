// Package calc holds the benchmark's pure arithmetic, kept apart from the
// harness so it can be unit-tested without a clock or a network: medians
// and tail percentiles, the ground-truth frame matcher, span self time and
// layer attribution, and open-loop generator lateness. Every time here is
// an int64 nanosecond count supplied by the caller.
package calc

import (
	"bytes"
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Max returns the largest value of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// MinBeyond is how many samples must lie above a reported tail percentile.
const MinBeyond = 10

// Tail returns the highest percentile that still has MinBeyond samples
// beyond it: the (MinBeyond+1)-th largest sample, which sits at percentile
// 100·(n−MinBeyond)/n. It also returns that percentile and the number of
// samples beyond it. ok is false below 2·MinBeyond samples, where the
// "tail" would fall under the median.
func Tail(xs []float64) (value, pct float64, beyond int, ok bool) {
	n := len(xs)
	if n < 2*MinBeyond {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	return s[n-1-MinBeyond], 100 * float64(n-MinBeyond) / float64(n), MinBeyond, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Packet is one ground-truth transmission, placed on the absolute sample
// axis of the run.
type Packet struct {
	Tech    string
	Payload []byte
	Start   int64 // absolute first sample
	End     int64 // absolute sample after the last one
}

// Frame is one decoded frame as a report delivers it.
type Frame struct {
	Tech    string
	Payload []byte
	Offset  int64 // absolute start sample the decoder reported
	CRCOK   bool
}

// Matcher claims ground-truth packets for decoded frames, each packet at
// most once. A frame matches an unclaimed packet of the same technology
// and payload whose start lies within Tolerance samples of the frame's
// reported offset; among several, the nearest wins. CRC-valid frames that
// match nothing are spurious: a wrong decode, or a second copy of a packet
// already claimed.
type Matcher struct {
	// Tolerance bounds |frame offset - packet start| in samples. It only
	// has to tell apart packets that repeat the same payload, which the
	// benchmark's inputs do no closer than one input pool apart.
	Tolerance int64

	packets []Packet
	claimed []bool
	byKey   map[string][]int // tech + payload -> packet indexes
	matched map[string]int   // frames matched per technology
	total   map[string]int   // packets on air per technology

	// Spurious counts CRC-valid frames that matched no unclaimed packet.
	Spurious int
}

// NewMatcher indexes the packets on air.
func NewMatcher(packets []Packet, tolerance int64) *Matcher {
	m := &Matcher{
		Tolerance: tolerance,
		packets:   packets,
		claimed:   make([]bool, len(packets)),
		byKey:     make(map[string][]int, len(packets)),
		matched:   make(map[string]int),
		total:     make(map[string]int),
	}
	for i, p := range packets {
		k := key(p.Tech, p.Payload)
		m.byKey[k] = append(m.byKey[k], i)
		m.total[p.Tech]++
	}
	return m
}

func key(tech string, payload []byte) string {
	var b bytes.Buffer
	b.WriteString(tech)
	b.WriteByte(0)
	b.Write(payload)
	return b.String()
}

// Match claims the packet f decodes and returns its index. CRC-failed
// frames are ignored (ok false, not spurious): the decoder itself marks
// them as unusable.
func (m *Matcher) Match(f Frame) (idx int, ok bool) {
	if !f.CRCOK {
		return -1, false
	}
	best, bestDist := -1, int64(math.MaxInt64)
	for _, i := range m.byKey[key(f.Tech, f.Payload)] {
		if m.claimed[i] {
			continue
		}
		d := f.Offset - m.packets[i].Start
		if d < 0 {
			d = -d
		}
		if d <= m.Tolerance && d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		m.Spurious++
		return -1, false
	}
	m.claimed[best] = true
	m.matched[m.packets[best].Tech]++
	return best, true
}

// Total returns the number of packets on air.
func (m *Matcher) Total() int { return len(m.packets) }

// Recovered returns the packets recovered: frames matched by payload plus
// frames counted by number only (edge, per technology), where the counted
// frames of a technology are capped at that technology's packets not
// already matched.
func (m *Matcher) Recovered(counted map[string]int) int {
	n := 0
	for tech, total := range m.total {
		got := m.matched[tech]
		extra := counted[tech]
		if room := total - got; extra > room {
			extra = room
		}
		n += got + extra
	}
	return n
}

// Span is one timed interval of a segment's life. Parent is the ID of the
// enclosing span (0 for a root).
type Span struct {
	ID     int
	Parent int
	Name   string
	Start  int64
	End    int64
}

// Dur is the span's duration (never negative).
func (s Span) Dur() int64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (the union of the children's
// intervals, clipped to the parent, so overlapping children are not
// double-counted).
func SelfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of children's
// intervals covers.
func covered(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	reach = math.MinInt64
	for _, v := range ivs {
		if v.a > reach {
			covered += v.b - v.a
			reach = v.b
		} else if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return covered
}

// Unattributed returns the share of root's duration that no child covers
// (0 for a zero-length root).
func Unattributed(root Span, children []Span) float64 {
	d := root.Dur()
	if d == 0 {
		return 0
	}
	return float64(d-covered(root, children)) / float64(d)
}

// Send is one open-loop hand-off: when the input was due, when the
// generator attempted the hand-off, and when the system accepted it.
type Send struct {
	Due   int64
	Start int64
	Done  int64
}

// Lateness separates the generator's own lateness from the system's
// backpressure. A hand-off could not start before it was due, nor before
// the previous hand-off was accepted (one generator, blocking hand-offs);
// any further delay is the generator running late. It returns the largest
// such delay, and Stalled, the largest delay caused by the system (the
// previous hand-off accepted after this one was due).
func Lateness(sends []Send) (late, stalled int64) {
	var prevDone int64 = math.MinInt64
	for _, s := range sends {
		ready := s.Due
		if prevDone > ready {
			if st := prevDone - s.Due; st > stalled {
				stalled = st
			}
			ready = prevDone
		}
		if l := s.Start - ready; l > late {
			late = l
		}
		prevDone = s.Done
	}
	return late, stalled
}
