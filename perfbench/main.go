// Command perfbench is GalioT's end-to-end benchmark. It runs the real
// pipeline in one process over loopback TCP — gateway.RunResilient, the
// cloud.Server with its decode farm and cancel.Decoder — on a seeded
// workload, checks every reported frame against the generator's ground
// truth, and prints the metrics as one JSON line. README.md describes the
// workloads, the metrics and how each layer is timed.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gateway-sparse --seed 1 --seconds 50 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the workload
// with the seam wrappers recording spans and prints the per-layer metrics
// instead, writing the spans under .bench_build/traces.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/perfbench/calc"
)

const (
	// setupChildren is how many fresh processes set the system up in
	// addition to the run's own first phase; setup_s is the median.
	setupChildren = 2
	// latenessBound is how late the open-loop generator may run (beyond
	// the system's own backpressure) before the run is invalid.
	latenessBound = 100 * time.Millisecond
	// capacityShare is the capacity phase's share of --seconds. air_x
	// averages the host's wandering speed (README.md, finding 6) only
	// over its own phase, so that phase gets the larger share; each of the
	// paced phase's latency samples already spans a segment's whole life.
	capacityShare = 0.6
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: gateway-sparse or cloud-collisions")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 50, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		setup   = flag.Bool("setup-only", false, "set the system up once, print the set-up time and exit")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, !*setup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *setup {
		ph, err := runPhase(w, *seed, phase{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Println(strconv.FormatFloat(ph.setupS, 'g', -1, 64))
		return 0
	}
	probe := startProbe()
	defer probe.close()
	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds, probe)
	} else {
		res, err = perLayer(w, *seed, *seconds, probe)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.violations) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.violations) > 0 {
		return 1
	}
	return 0
}

// result is one run's output.
type result struct {
	attempted  int
	failed     int
	metrics    map[string]metric
	violations []string
}

// checked is one phase with its output check.
type checked struct {
	name string
	ph   *phaseOut
	o    outcome
}

// verdict folds the checked phases of a run into its counts and
// violations, logging each phase, and checks the pooled recovered fraction
// against the workload's floor.
func verdict(w *workload, phases ...checked) (res result, recovered float64) {
	var got, total int
	for _, c := range phases {
		res.attempted += c.ph.detections
		res.failed += c.o.failed
		res.violations = append(res.violations, check(w, c.name, c.ph, c.o)...)
		got += c.o.recovered
		total += c.o.total
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d inputs, %.2f s air in %.2f s (air_x %.3f, host slowness %.3f), %d/%d packets recovered, %d segments shipped, %d latency samples, set-up %.3f s\n",
			w.name, c.name, c.ph.n, c.ph.air, float64(c.ph.end-c.ph.start)/1e9, airX(c.ph), c.ph.slow, c.o.recovered, c.o.total, c.ph.shipped, len(c.o.latencies), c.ph.setupS)
	}
	if total > 0 {
		recovered = float64(got) / float64(total)
	}
	if total == 0 || recovered < w.floor {
		res.violations = append(res.violations, fmt.Sprintf("recovered %d of %d packets, below the floor %.2f", got, total, w.floor))
	}
	return res, recovered
}

// lateness returns a violation when the open-loop generator fell behind.
func lateness(ph *phaseOut) []string {
	late, _ := calc.Lateness(ph.sends)
	if late > int64(latenessBound) {
		return []string{fmt.Sprintf("paced generator ran %.1f ms late (bound %v)", float64(late)/1e6, latenessBound)}
	}
	return nil
}

// endToEnd is the untraced run: the capacity phase, set-up in fresh
// processes, then the paced phase.
func endToEnd(w *workload, seed uint64, seconds float64, probe *hostProbe) (result, error) {
	capPh, err := measure(w, seed, phase{seconds: capacityShare * seconds}, probe)
	if err != nil {
		return result{}, fmt.Errorf("capacity phase: %w", err)
	}
	setups := []float64{capPh.setupS}
	for i := 0; i < setupChildren; i++ {
		s, err := setupInChild(w.name, seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up child: %w", err)
		}
		setups = append(setups, s)
	}
	paced, err := measure(w, seed, phase{paced: true, seconds: (1 - capacityShare) * seconds}, probe)
	if err != nil {
		return result{}, fmt.Errorf("paced phase: %w", err)
	}
	oPaced := evaluate(w, paced)
	res, recovered := verdict(w, checked{"capacity", capPh, evaluate(w, capPh)}, checked{"paced", paced, oPaced})
	res.violations = append(res.violations, lateness(paced)...)

	p50 := calc.Median(oPaced.latencies)
	tail, pct, beyond, ok := calc.Tail(oPaced.latencies)
	if !ok {
		res.violations = append(res.violations, fmt.Sprintf("paced phase: %d latency samples, too few for a tail percentile", len(oPaced.latencies)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s latency as measured: p50 %.1f ms over %d frames; tail p%g %.1f ms with %d samples beyond; set-up samples %v\n",
		w.name, p50, len(oPaced.latencies), pct, tail, beyond, setups)
	v := map[string]float64{
		"air_x":                 refAirX(capPh),
		"frame_latency_p50_ms":  p50 / paced.slow,
		"frame_latency_tail_ms": tail / paced.slow,
		"recovered_frac":        recovered,
		"wire_bytes_per_air_s":  float64(capPh.txBytes+paced.txBytes) / (capPh.air + paced.air),
		"setup_s":               calc.Median(setups),
		"peak_rss_mb":           peakRSSMiB(),
	}
	res.metrics = make(map[string]metric, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		res.metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return res, nil
}

// perLayer is the traced run: an untraced and a traced capacity phase
// (their air_x ratio is the tracing overhead), then a traced paced phase.
func perLayer(w *workload, seed uint64, seconds float64, probe *hostProbe) (result, error) {
	capU, err := measure(w, seed, phase{seconds: seconds / 4}, probe)
	if err != nil {
		return result{}, fmt.Errorf("untraced capacity phase: %w", err)
	}
	capT, err := measure(w, seed, phase{traced: true, seconds: seconds / 4}, probe)
	if err != nil {
		return result{}, fmt.Errorf("traced capacity phase: %w", err)
	}
	pacedT, err := measure(w, seed, phase{paced: true, traced: true, seconds: seconds / 2}, probe)
	if err != nil {
		return result{}, fmt.Errorf("traced paced phase: %w", err)
	}
	oCap, oPaced := evaluate(w, capT), evaluate(w, pacedT)
	res, _ := verdict(w, checked{"capacity-untraced", capU, evaluate(w, capU)}, checked{"capacity-traced", capT, oCap}, checked{"paced-traced", pacedT, oPaced})
	res.violations = append(res.violations, lateness(pacedT)...)
	res.metrics = layers(w, capT, pacedT, capU, oCap, oPaced)
	if u := res.metrics["trace.unattributed_frac_max"].Value; u >= 0.05 {
		res.violations = append(res.violations, fmt.Sprintf("a segment's spans leave %.1f%% of its latency unattributed", 100*u))
	}
	if err := writeSpans(w, seed, map[string]*phaseOut{"capacity": capT, "paced": pacedT}); err != nil {
		return res, err
	}
	return res, nil
}

// measure runs one phase and records how slow the host ran during it.
func measure(w *workload, seed uint64, ph phase, probe *hostProbe) (*phaseOut, error) {
	out, err := runPhase(w, seed, ph)
	if err != nil {
		return nil, err
	}
	out.slow = probe.slowness(out.start, out.end)
	return out, nil
}

// setupInChild measures one set-up in a fresh process, so state the
// program builds lazily once per process is charged to every sample.
func setupInChild(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var s float64
	if _, err := fmt.Sscan(string(out), &s); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return s, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (run.sh's build directory).
const traceDir = ".bench_build/traces"

// writeSpans writes every traced segment's spans as JSON lines.
func writeSpans(w *workload, seed uint64, phases map[string]*phaseOut) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type rec struct {
		Phase   string `json:"phase"`
		Segment int64  `json:"segment_start"`
		ID      int    `json:"id"`
		Parent  int    `json:"parent,omitempty"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	for _, name := range []string{"capacity", "paced"} {
		for _, s := range segmentSpans(w, phases[name]) {
			all := append([]calc.Span{s.root}, s.children...)
			self := calc.SelfTimes(all)
			for _, sp := range all {
				if err := enc.Encode(rec{name, s.start, sp.ID, sp.Parent, sp.Name, sp.Start, sp.End, self[sp.ID]}); err != nil {
					_ = f.Close() // the encode error is the one worth reporting
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}
