// Command galiot-cloud runs the GalioT cloud decoder as a TCP service:
// gateways connect over the backhaul protocol, ship detected I/Q segments,
// and receive decoded frames back. Decoding uses Algorithm 1 of the paper
// (successive interference cancellation wrapped around the modulation-class
// kill filters) over the prototype technology set.
//
// Usage:
//
//	galiot-cloud -listen :7373
//
// With -shards N (N > 1) the process runs the sharded decode plane
// instead of a single service: N shared-nothing decode shards behind one
// accept loop, sessions routed by a consistent hash of (gateway, epoch),
// per-shard metrics under cloud_shard<i>_*. The -obs-addr endpoint then
// also serves /fleet/metrics: the rollup across the plane registry and
// every shard farm's private registry, with exact per-target breakdown.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/galiot"
)

func main() {
	var (
		listen         = flag.String("listen", ":7373", "TCP address to accept gateway sessions on")
		dsss           = flag.Bool("dsss", false, "also decode the O-QPSK DSSS technology")
		quiet          = flag.Bool("quiet", false, "suppress per-segment logs")
		workers        = flag.Int("workers", 4, "decode-farm worker count (0 decodes inline, one segment per session at a time; per shard when -shards > 1)")
		queue          = flag.Int("queue", 64, "decode-farm admission queue depth; beyond it gateways get busy rejects (per shard when -shards > 1)")
		shards         = flag.Int("shards", 1, "decode-plane shard count; > 1 runs the sharded front tier (sessions routed by consistent hash of gateway and epoch)")
		sessionTimeout = flag.Duration("session-timeout", 0, "reap sessions idle for this long (0 = never)")
		dedupTTL       = flag.Duration("dedup-ttl", 0, "evict replay-dedup cache entries older than this (0 = count-bound only)")
		obsAddr        = flag.String("obs-addr", "", "serve /metrics, /trace/recent, /events/recent, /healthz, /readyz, /fleet/metrics and pprof on this address (empty = off)")
	)
	flag.Parse()

	techs := galiot.Technologies()
	if *dsss {
		techs = galiot.TechnologiesWithDSSS()
	}
	reg := galiot.NewObsRegistry()
	tracer := galiot.NewObsTracer(0)
	tracer.SetClock(func() int64 { return time.Now().UnixNano() })
	tracer.SetSite("cloud")
	journal := galiot.NewObsJournal(0)
	journal.SetClock(func() int64 { return time.Now().UnixNano() })
	health := galiot.NewObsHealth()
	// The trace store assembles this process's spans — stitched onto the
	// wire-propagated trace IDs every segment carries — behind /trace/tree and
	// /trace/slowest. Defaults keep every anomalous trace (replays, drops,
	// slow outliers) plus a 1-in-16 head sample.
	traces := galiot.NewObsTraceStore(galiot.ObsTraceStoreConfig{Obs: reg, Journal: journal})
	tracer.SetSink(traces.Ingest)

	if *shards > 1 {
		runSharded(*listen, *obsAddr, *shards, *workers, *queue, *sessionTimeout, *dedupTTL, *quiet, techs, reg, tracer, journal, health, traces)
		return
	}

	svc := galiot.NewCloud(techs...)
	if !*quiet {
		svc.Logf = log.Printf
	}
	svc.UseObs(reg, tracer)
	if *dedupTTL > 0 {
		svc.SetDedupTTL(*dedupTTL, time.Now)
	}
	if *workers > 0 {
		fm := svc.StartFarm(galiot.FarmConfig{
			Workers:    *workers,
			QueueDepth: *queue,
			Clock:      func() int64 { return time.Now().UnixNano() },
		})
		fm.RegisterHealth(health, "cloud_farm_headroom")
	}
	// Single-service mode still serves /fleet/metrics: a one-target rollup
	// over the service registry, so tooling (galiot-top) reads the same
	// shape regardless of shard count.
	fl := galiot.NewObsFleet(galiot.ObsRegistryTarget("cloud", reg))
	closeObs := startObs(*obsAddr, reg, tracer, journal, health, fl, traces)
	defer closeObs()

	srv := &galiot.CloudServer{Service: svc, SessionTimeout: *sessionTimeout, Journal: journal}
	if err := srv.Listen(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-cloud:", err)
		os.Exit(1)
	}
	log.Printf("galiot-cloud listening on %s (%d technologies)", srv.Addr(), len(techs))

	waitForInterrupt()
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	svc.Close() // drain the decode farm after the sessions are done
	frames, stats, fst := svc.Totals()
	log.Printf("decoded %d frames total (stats %+v)", frames, stats)
	if fst.Workers > 0 {
		log.Printf("farm: %d admitted, %d completed, %d rejected, %d deadline-exceeded, queue wait p50=%d p99=%d samples",
			fst.Admitted, fst.Completed, fst.Rejected, fst.DeadlineExceeded, fst.P50QueueWait, fst.P99QueueWait)
	}
	logMetrics(reg)
}

// runSharded serves the sharded decode plane: the front tier routes each
// session to one of the shards, every shard runs its own decode farm, and
// shutdown reports per-shard session and farm counters plus the fleet
// rollup across every shard registry.
func runSharded(listen, obsAddr string, shards, workers, queue int, sessionTimeout, dedupTTL time.Duration, quiet bool, techs []galiot.Technology, reg *galiot.ObsRegistry, tracer *galiot.ObsTracer, journal *galiot.ObsJournal, health *galiot.ObsHealth, traces *galiot.ObsTraceStore) {
	cfg := galiot.FleetConfig{
		Shards:     shards,
		Workers:    workers,
		QueueDepth: queue,
		Techs:      techs,
		Obs:        reg,
		Tracer:     tracer,
		Clock:      func() int64 { return time.Now().UnixNano() },
		Journal:    journal,
		Health:     health,
	}
	if !quiet {
		cfg.Logf = log.Printf
	}
	if dedupTTL > 0 {
		cfg.DedupTTL = dedupTTL
		cfg.DedupNow = time.Now
	}
	front, err := galiot.NewFleet(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galiot-cloud:", err)
		os.Exit(1)
	}
	// The fleet aggregator scrapes the plane registry plus every shard
	// farm's private registry, so -obs-addr exposes all per-shard series
	// through /fleet/metrics with exact per-target breakdown.
	fl := galiot.NewObsFleet(front.Targets()...)
	closeObs := startObs(obsAddr, reg, tracer, journal, health, fl, traces)
	defer closeObs()

	srv := front.NewServer()
	srv.SessionTimeout = sessionTimeout
	srv.Journal = journal
	if err := srv.Listen(listen); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-cloud:", err)
		os.Exit(1)
	}
	log.Printf("galiot-cloud listening on %s (%d shards x %d workers, capacity hint %d, %d technologies)",
		srv.Addr(), front.Shards(), workers, front.Capacity(), len(techs))

	waitForInterrupt()
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	stats := front.Stats() // refreshes cloud_shard<i>_* gauges for the final snapshot
	rollup := fl.Collect() // freeze the fleet rollup while the shard registries are final
	front.Close()          // drain every shard farm after the sessions are done
	for _, st := range stats {
		log.Printf("shard %d: %d sessions routed, farm %d admitted, %d completed, %d rejected",
			st.Shard, st.Sessions, st.Farm.Admitted, st.Farm.Completed, st.Farm.Rejected)
	}
	logMetrics(reg)
	if data, err := json.Marshal(rollup); err == nil {
		log.Printf("fleet rollup: %s", data)
	}
}

// startObs starts the observability endpoint when addr is set and returns
// its closer (a no-op when off). The fleet aggregator must be wired before
// Start so /fleet/metrics never races a concurrent scrape.
func startObs(addr string, reg *galiot.ObsRegistry, tracer *galiot.ObsTracer, journal *galiot.ObsJournal, health *galiot.ObsHealth, fl *galiot.ObsFleet, traces *galiot.ObsTraceStore) func() {
	if addr == "" {
		return func() {}
	}
	obsSrv := &galiot.ObsServer{Registry: reg, Tracer: tracer, Journal: journal, Health: health, Fleet: fl, Traces: traces}
	if err := obsSrv.Start(addr); err != nil {
		fmt.Fprintln(os.Stderr, "galiot-cloud: obs server:", err)
		os.Exit(1)
	}
	log.Printf("observability endpoints on http://%s/metrics", obsSrv.Addr())
	return func() {
		if err := obsSrv.Close(); err != nil {
			log.Printf("obs server close: %v", err)
		}
	}
}

func waitForInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func logMetrics(reg *galiot.ObsRegistry) {
	if data, err := json.Marshal(reg.Snapshot()); err == nil {
		log.Printf("metrics: %s", data)
	}
}
