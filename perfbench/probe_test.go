package main

import (
	"math"
	"testing"
	"time"
)

// TestSlownessScalesTimeMetrics checks the host-speed arithmetic: the
// probe's mean over a phase against the reference, and air_x scaled by it.
func TestSlownessScalesTimeMetrics(t *testing.T) {
	p := &hostProbe{samples: []probeSample{{at: 10, cpu: 100e3}, {at: 20, cpu: 200e3}, {at: 30, cpu: 600e3}}}
	if got, want := p.slowness(10, 20), 150e3/refProbeNs; math.Abs(got-want) > 1e-12 {
		t.Errorf("slowness over the first two samples = %v, want %v", got, want)
	}
	if got := p.slowness(40, 50); got != 1 {
		t.Errorf("slowness with no sample in the window = %v, want 1", got)
	}
	ph := &phaseOut{air: 2, start: 0, end: 4e9, slow: 1.5}
	if got := airX(ph); got != 0.5 {
		t.Errorf("airX = %v, want 0.5", got)
	}
	if got := refAirX(ph); got != 0.75 {
		t.Errorf("refAirX = %v, want 0.75: at 1.5x slowness the phase would have run in 2/3 of the time", got)
	}
}

// TestProbeTimesItsKernel runs the real probe briefly.
func TestProbeTimesItsKernel(t *testing.T) {
	p := startProbe()
	time.Sleep(3 * probeEvery)
	p.close()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		t.Fatal("the probe recorded no sample")
	}
	for _, s := range p.samples {
		if s.cpu <= 0 {
			t.Errorf("probe sample with CPU time %d ns", s.cpu)
		}
	}
}
