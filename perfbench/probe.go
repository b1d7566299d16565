package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// probeEvery is how often the host probe runs its kernel. At about
	// 0.16 ms of work per run it takes 0.3 % of one CPU.
	probeEvery = 50 * time.Millisecond
	// probeRounds sizes the probe kernel.
	probeRounds = 2000
	// refProbeNs is the probe kernel's mean CPU time on the reference host
	// (2-CPU shared virtual machine) in a typical stretch: 8 runs of
	// cloud-collisions read means of 152–212 µs over their capacity
	// phases. Time-based end-to-end metrics are reported at this speed.
	refProbeNs = 160e3
)

// probeSink keeps the compiler from discarding the probe kernel's work.
// Only the probe goroutine touches it.
var probeSink float64

// probeKernel is a fixed piece of floating-point work whose working set
// fits in the L1 cache, so its CPU time follows the speed the host gives
// this virtual CPU and nothing else.
func probeKernel() {
	var a [64]float64
	for i := range a {
		a[i] = float64(i)
	}
	for r := 0; r < probeRounds; r++ {
		for i := range a {
			a[i] = a[i]*0.999 + a[(i+1)&63]*0.001 + 1e-9
		}
	}
	probeSink += a[0]
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID. getrusage's
// per-thread times are counted in scheduler ticks, too coarse for a kernel
// this short; this clock is exact.
const clockThreadCPUTime = 3

// threadCPU returns the calling OS thread's CPU time in nanoseconds.
func threadCPU() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// probeSample is one timed run of the probe kernel.
type probeSample struct {
	at  int64 // now() when it finished
	cpu int64 // thread CPU nanoseconds it took
}

// hostProbe times the probe kernel on a schedule for the life of the
// process. Its CPU time, not its wall time, is what is kept: the pipeline
// keeps both CPUs busy, so the probe waits for a CPU, but once running it
// runs at whatever speed the host currently gives.
type hostProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []probeSample
}

func startProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *hostProbe) run() {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		runtime.LockOSThread()
		c0 := threadCPU()
		probeKernel()
		c1 := threadCPU()
		runtime.UnlockOSThread()
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{at: now(), cpu: c1 - c0})
		p.mu.Unlock()
	}
}

// close stops the probe and waits for its goroutine to end.
func (p *hostProbe) close() {
	close(p.stop)
	<-p.done
}

// slowness returns how much slower than the reference the host ran
// between from and to: the probe kernel's mean CPU time over the interval
// divided by refProbeNs. It is 1 when no probe ran in the interval.
func (p *hostProbe) slowness(from, to int64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range p.samples {
		if s.at >= from && s.at <= to {
			sum += float64(s.cpu)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / refProbeNs
}
