// Command liveupdate-serve runs a LiveUpdate serving fleet (one node by
// default) on a synthetic stream and reports live serving/freshness
// statistics. With -listen it instead exposes the fleet over TCP for a
// second process to drive; with -connect it is that second process, driving
// a remote fleet through the wire client.
//
// Usage:
//
//	liveupdate-serve -profile criteo -requests 20000 -report 5000
//	liveupdate-serve -replicas 4 -router hash -sync 30s
//	liveupdate-serve -replicas 4 -concurrency 8          # parallel load driver
//	liveupdate-serve -replicas 4 -chaos "@2s kill 1; @4s replace 1; @6s scale 6"
//	liveupdate-serve -replicas 8 -topology tree -delta -compress 6  # hierarchical sync billing
//
//	liveupdate-serve -replicas 4 -listen :7070 -queue-depth 32   # process 1: serve the wire
//	liveupdate-serve -connect localhost:7070 -conns 8 -batch 8   # process 2: drive it
//
//	liveupdate-serve -telemetry -trace-out spans.json            # stage table + Perfetto trace
//	liveupdate-serve -listen :7070 -telemetry -pprof             # live /metrics, /debug/vars, /trace, /debug/pprof/
//
//	liveupdate-serve -listen :7070 -fault-plan "reset(p=0.05);latency(p=0.2,max=5ms)" -fault-seed 7
//	                                                             # deterministic wire chaos; clients must retry through it
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"liveupdate"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "liveupdate-serve: "+format+"\n", args...)
	os.Exit(1)
}

// flags is liveupdate-serve's parsed and validated command line.
type flags struct {
	profile      string
	requests     int
	report       int
	seed         uint64
	replicas     int
	router       string
	syncEvery    time.Duration
	topology     string
	deltaSync    bool
	compress     int
	quant        string
	noTrain      bool
	noIsolation  bool
	concurrency  int
	batch        int
	chaos        liveupdate.ChaosSchedule
	listen       string
	connect      string
	conns        int
	maxConns     int
	maxInflight  int
	queueDepth   int
	slaBudget    time.Duration
	drainTimeout time.Duration
	faultPlan    liveupdate.FaultPlan
	telemetry    bool
	traceSample  int
	traceOut     string
	pprof        bool
}

// parseFlags defines, parses and checks the command line. It returns nil
// flags when the command line ends the run, with the exit status: 0 for
// -help, 1 for a value the checks reject, 2 for an unknown flag or a bad
// sync-pricing value (those also print the flag table). Valid flags come
// back with status 0.
func parseFlags(args []string, stderr io.Writer) (*flags, int) {
	fs := flag.NewFlagSet("liveupdate-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &flags{}
	fs.StringVar(&f.profile, "profile", "criteo", "dataset profile (avazu, criteo, bd-tb, ...)")
	fs.IntVar(&f.requests, "requests", 20000, "requests to serve")
	fs.IntVar(&f.report, "report", 5000, "print statistics every N requests (0 = final report only)")
	fs.Uint64Var(&f.seed, "seed", 42, "deterministic seed")
	fs.IntVar(&f.replicas, "replicas", 1, "fleet size (1 = single node)")
	fs.StringVar(&f.router, "router", string(liveupdate.RoundRobinRouter),
		fmt.Sprintf("routing policy for -replicas > 1 %v", liveupdate.RouterPolicies()))
	fs.DurationVar(&f.syncEvery, "sync", 5*time.Second,
		"virtual-time interval between fleet LoRA syncs (0 disables); syncs pipeline snapshot→merge→publish off the serving path")
	fs.StringVar(&f.topology, "topology", string(liveupdate.SyncTopologyFlat),
		fmt.Sprintf("sync collective topology %v: flat is the N² all-gather, ring/tree are hierarchical (~N·log N wire bill; merged state is identical)", liveupdate.SyncTopologies()))
	fs.BoolVar(&f.deltaSync, "delta", false,
		"bill delta syncs: only rows/factors whose epoch changed since the peer's last acked generation count against the wire")
	fs.IntVar(&f.compress, "compress", 0,
		"flate level for sync payload pricing: trades compress cpu-seconds for wire-bytes (0 = off, 1-9)")
	fs.StringVar(&f.quant, "quant", "",
		fmt.Sprintf("published inference weight format %v: int8/f16 quantize the dense MLPs at publish time, training stays float64", liveupdate.Quantizations()))
	fs.BoolVar(&f.noTrain, "no-train", false, "disable the co-located trainer (Only-Infer mode)")
	fs.BoolVar(&f.noIsolation, "no-isolation", false, "disable NUMA scheduling and reuse (naive co-location)")
	fs.IntVar(&f.concurrency, "concurrency", 1,
		"client goroutines driving the fleet (virtual-time stats are identical for any count)")
	fs.IntVar(&f.batch, "batch", 1,
		"serving batch size: driver lanes coalesce up to this many queued same-shard requests into one zero-allocation batched serve call (virtual-time stats are identical to -batch 1)")
	chaosScript := fs.String("chaos", "",
		"membership-event schedule applied at virtual timestamps while serving, e.g. \"@2s kill 1; @4s replace 1; @6s scale 6\" (actions: kill/replace/leave <slot>, join, scale <n>; needs -replicas > 1)")
	fs.StringVar(&f.listen, "listen", "",
		"server mode: expose the fleet on this TCP address (e.g. :7070) instead of driving it locally; serves until SIGINT/SIGTERM, then prints final statistics")
	fs.StringVar(&f.connect, "connect", "",
		"client mode: drive a remote fleet at this address through the wire client instead of building one locally")
	fs.IntVar(&f.conns, "conns", 4, "client mode: parallel wire connections (client-side driver lanes)")
	fs.IntVar(&f.maxConns, "max-conns", 0,
		"server mode: max simultaneously accepted TCP connections (0 = default 256)")
	fs.IntVar(&f.maxInflight, "max-inflight", 0,
		"server mode: max wire requests served concurrently (0 = GOMAXPROCS)")
	fs.IntVar(&f.queueDepth, "queue-depth", 0,
		"server mode: admission queue depth; arrivals past it are shed with 429 (0 = default 64)")
	fs.DurationVar(&f.slaBudget, "sla-budget", 0,
		"server mode: shed arrivals whose predicted queueing delay exceeds this budget (0 = disabled)")
	fs.DurationVar(&f.drainTimeout, "drain-timeout", 0,
		"server mode: graceful-shutdown grace for in-flight and queued requests before force-close (0 = default 5s)")
	faultPlanStr := fs.String("fault-plan", "",
		"server mode: arm deterministic network chaos on every accepted connection, e.g. \"latency(p=0.2,min=1ms,max=20ms);reset(p=0.05)\" (classes: latency, reset, blackhole, truncate, corrupt; empty = off)")
	faultSeed := fs.Uint64("fault-seed", 1,
		"server mode: seed for -fault-plan; the same seed replays the same per-connection fault sequence")
	fs.BoolVar(&f.telemetry, "telemetry", false,
		"attach the telemetry layer: fleet metrics registry plus sampled per-request stage tracing; prints a stage latency table after a local drive, and with -listen exports GET /metrics, /debug/vars, /trace")
	fs.IntVar(&f.traceSample, "trace-sample", 1,
		"telemetry: trace 1 in N requests per stage (1 = every request, 0 = metrics only); implies nothing without -telemetry")
	fs.StringVar(&f.traceOut, "trace-out", "",
		"telemetry: write the span ring as Chrome trace-event JSON to this file at exit (load at ui.perfetto.dev); implies -telemetry")
	fs.BoolVar(&f.pprof, "pprof", false,
		"telemetry server mode: expose net/http/pprof under /debug/pprof/ (debug surface, off by default); implies -telemetry")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}

	// Validate flags up front so bad values produce an error, not a panic
	// (e.g. -report used to divide by zero).
	fail := func(format string, args ...any) (*flags, int) {
		fmt.Fprintf(stderr, "liveupdate-serve: "+format+"\n", args...)
		return nil, 1
	}
	if f.requests <= 0 {
		return fail("-requests must be positive, got %d", f.requests)
	}
	if f.listen != "" && f.connect != "" {
		return fail("-listen and -connect are mutually exclusive: a process is either the server or the client")
	}
	if (f.listen != "" || f.connect != "") && *chaosScript != "" {
		return fail("-chaos drives membership at deterministic virtual-time drain points; the wire path is wall-clock and cannot honor them")
	}
	if f.connect != "" && f.conns < 1 {
		return fail("-conns must be >= 1, got %d", f.conns)
	}
	if f.traceOut != "" || f.pprof {
		f.telemetry = true
	}
	if f.telemetry && f.connect != "" {
		return fail("-telemetry instruments the serving process; in -connect mode set it on the -listen side and scrape its /metrics")
	}
	if f.traceSample < 0 {
		return fail("-trace-sample must be non-negative, got %d", f.traceSample)
	}
	if f.report < 0 {
		return fail("-report must be non-negative, got %d", f.report)
	}
	if f.replicas < 1 {
		return fail("-replicas must be >= 1, got %d", f.replicas)
	}
	if f.syncEvery < 0 {
		return fail("-sync must be non-negative, got %v", f.syncEvery)
	}
	if f.concurrency < 1 {
		return fail("-concurrency must be >= 1, got %d", f.concurrency)
	}
	if f.batch < 1 {
		return fail("-batch must be >= 1, got %d", f.batch)
	}
	// The fleet-scale sync flags follow the usage-then-exit-2 convention: a
	// bad value prints the flag table so the valid domain is in view.
	usage := func(format string, args ...any) (*flags, int) {
		fmt.Fprintf(stderr, "liveupdate-serve: "+format+"\n", args...)
		fs.Usage()
		return nil, 2
	}
	validTopology := false
	for _, t := range liveupdate.SyncTopologies() {
		if f.topology == string(t) {
			validTopology = true
		}
	}
	if !validTopology {
		return usage("-topology must be one of %v, got %q", liveupdate.SyncTopologies(), f.topology)
	}
	if f.compress < 0 || f.compress > 9 {
		return usage("-compress must be in [0,9], got %d", f.compress)
	}
	if _, err := liveupdate.ParseQuantization(f.quant); err != nil {
		return usage("-quant must be one of %v, got %q", liveupdate.Quantizations(), f.quant)
	}
	faultPlan, err := liveupdate.ParseFaultPlan(*faultPlanStr)
	if err != nil {
		return usage("-fault-plan: %v", err)
	}
	faultPlan.Seed = *faultSeed
	if faultPlan.Enabled() && f.listen == "" {
		return fail("-fault-plan injects faults on the wire: set -listen")
	}
	if f.drainTimeout < 0 {
		return fail("-drain-timeout must be non-negative, got %v", f.drainTimeout)
	}
	if f.drainTimeout > 0 && f.listen == "" {
		return fail("-drain-timeout shapes the wire gateway's graceful shutdown: set -listen")
	}

	f.faultPlan = faultPlan
	if *chaosScript != "" {
		if f.chaos, err = liveupdate.ParseChaosScript(*chaosScript); err != nil {
			return fail("%v", err)
		}
		if f.replicas < 2 {
			return fail("-chaos needs a fleet: set -replicas > 1")
		}
	}
	return f, 0
}

func main() {
	f, code := parseFlags(os.Args[1:], os.Stderr)
	if f == nil {
		os.Exit(code)
	}
	chaos, faultPlan := f.chaos, f.faultPlan

	if f.connect != "" {
		runClient(f.connect, clientConfig{
			conns:       f.conns,
			requests:    f.requests,
			report:      f.report,
			seed:        f.seed,
			concurrency: f.concurrency,
			batch:       f.batch,
			profile:     f.profile,
		})
		return
	}

	profile, err := liveupdate.ProfileByName(f.profile)
	if err != nil {
		fatalf("%v", err)
	}
	opts := []liveupdate.Option{
		liveupdate.WithProfile(profile),
		liveupdate.WithSeed(f.seed),
		liveupdate.WithReplicas(f.replicas),
		liveupdate.WithRouter(liveupdate.RouterPolicy(f.router)),
		liveupdate.WithSyncEvery(f.syncEvery),
		liveupdate.WithSyncTopology(liveupdate.SyncTopology(f.topology)),
		liveupdate.WithDeltaSync(f.deltaSync),
		liveupdate.WithCompression(f.compress),
		liveupdate.WithTraining(!f.noTrain),
		liveupdate.WithIsolation(!f.noIsolation),
		liveupdate.WithQuantization(liveupdate.Quantization(f.quant)),
	}
	if f.telemetry {
		opts = append(opts, liveupdate.WithTelemetry(liveupdate.TelemetryConfig{
			SampleEvery: f.traceSample,
			Pprof:       f.pprof,
		}))
	}

	if f.listen != "" {
		ln, err := net.Listen("tcp", f.listen)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts,
			liveupdate.WithListener(ln),
			liveupdate.WithAdmission(liveupdate.AdmissionConfig{
				MaxConns:     f.maxConns,
				MaxInflight:  f.maxInflight,
				QueueDepth:   f.queueDepth,
				SLABudget:    f.slaBudget,
				DrainTimeout: f.drainTimeout,
			}))
		if faultPlan.Enabled() {
			opts = append(opts, liveupdate.WithFaultInjection(faultPlan))
		}
		srv, err := liveupdate.New(opts...)
		if err != nil {
			ln.Close()
			fatalf("%v", err)
		}
		runServer(srv.(*liveupdate.Gateway), f.replicas, f.telemetry, f.pprof, f.traceOut, faultPlan)
		return
	}

	srv, err := liveupdate.New(opts...)
	if err != nil {
		fatalf("%v", err)
	}
	gen := liveupdate.NewWorkload(profile, f.seed^0x5e)

	fmt.Printf("liveupdate-serve %s: profile=%s replicas=%d router=%s training=%v isolation=%v concurrency=%d batch=%d\n",
		liveupdate.Version, profile.Name, f.replicas, f.router, !f.noTrain, !f.noIsolation, f.concurrency, f.batch)
	if len(chaos) > 0 {
		fmt.Printf("chaos schedule: %s\n", chaos)
	}
	fmt.Printf("%-10s %-10s %-12s %-12s %-14s %-8s %-12s %-12s\n",
		"served", "P99(ms)", "violations", "trainSteps", "loraOverhead", "syncs", "syncBytes", "virtTime(s)")
	printStats := func(st liveupdate.Stats) {
		fmt.Printf("%-10d %-10.3f %-12.4f %-12d %-14.4f %-8d %-12d %-12.2f\n",
			st.Served, st.P99*1000, st.ViolationRate, st.TrainSteps,
			st.MemoryOverhead, st.Syncs, st.SyncBytes, st.VirtualTime)
	}
	var lastPrinted uint64 // written under Drive's serialized OnProgress, read after it returns
	rep, err := liveupdate.Drive(srv, gen, liveupdate.DriveConfig{
		Requests:      f.requests,
		Workers:       f.concurrency,
		BatchSize:     f.batch,
		Seed:          f.seed,
		Chaos:         chaos,
		ProgressEvery: f.report,
		OnProgress: func(served uint64) {
			lastPrinted = served
			printStats(srv.Stats())
		},
	})
	if err != nil {
		fatalf("drive: %v", err)
	}
	if lastPrinted != rep.Served {
		printStats(srv.Stats())
	}
	fmt.Printf("\ndrive: %d workers over %d shard(s): %d req in %v wall (%.0f req/s wall, %.0f req/s virtual)\n",
		rep.Workers, rep.Shards, rep.Served, rep.Elapsed.Round(time.Millisecond), rep.QPS, rep.VirtualQPS)
	if rep.BatchSize > 1 && rep.Batches > 0 {
		fmt.Printf("batching: cap %d, %d serve calls, %.2f req/call mean\n",
			rep.BatchSize, rep.Batches, float64(rep.Served)/float64(rep.Batches))
	}
	for _, ws := range rep.PerWorker {
		fmt.Printf("  worker %-3d shards=%-8v served=%-8d busy=%-12v meanLat=%.3fms\n",
			ws.Worker, ws.Shards, ws.Served, ws.Busy.Round(time.Millisecond), ws.MeanLatency*1000)
	}
	if len(chaos) > 0 {
		fmt.Printf("\nchaos: %d/%d events applied\n", len(rep.Chaos), len(chaos))
		for _, ae := range rep.Chaos {
			fmt.Printf("  %-24s → request %-7d virtual %.3fs\n", ae.Event, ae.Request, ae.Virtual)
		}
		if rep.ChaosSkipped > 0 {
			fmt.Printf("  (%d events skipped: trace ended before their timestamps)\n", rep.ChaosSkipped)
		}
	}
	printStageTable(rep.Stages, f.traceSample)
	if st := srv.Stats(); len(st.Replicas) > 0 {
		fmt.Println("\nper-replica breakdown:")
		fmt.Printf("  %-8s %-10s %-10s %-12s %-12s %-12s\n",
			"replica", "served", "P99(ms)", "violations", "trainSteps", "virtTime(s)")
		for i, rs := range st.Replicas {
			fmt.Printf("  %-8d %-10d %-10.3f %-12.4f %-12d %-12.2f\n",
				i, rs.Served, rs.P99*1000, rs.ViolationRate, rs.TrainSteps, rs.VirtualTime)
		}
		fmt.Printf("\nfleet sync (%s): %d syncs, %d payload bytes, %d wire bytes, %.4f virtual s (%.4f compute + %.4f publish)\n",
			st.SyncTopology, st.Syncs, st.SyncBytes, st.SyncWireBytes,
			st.SyncSeconds, st.SyncComputeSeconds, st.SyncPublishSeconds)
		if st.SyncDeltaSavedBytes != 0 || st.SyncCompressSavedBytes != 0 {
			fmt.Printf("fleet sync savings: delta %d bytes, compression %d bytes for %.4f compress s\n",
				st.SyncDeltaSavedBytes, st.SyncCompressSavedBytes, st.SyncCompressSeconds)
		}
		if st.Joins+st.Leaves+st.Fails > 0 {
			fmt.Printf("fleet membership: %d active, %d joins, %d leaves, %d fails; catch-up %d bytes in %.4f virtual s\n",
				st.Members, st.Joins, st.Leaves, st.Fails, st.CatchUpBytes, st.CatchUpSeconds)
		}
	}
	dumpTrace(srv, f.traceOut)
}

// printStageTable renders the drive's sampled per-stage wall-clock latency
// breakdown (empty unless the Server was built with tracing enabled).
func printStageTable(stages []liveupdate.DriveStageStat, sampleEvery int) {
	if len(stages) == 0 {
		return
	}
	fmt.Printf("\nstage breakdown (wall clock, 1 in %d sampled):\n  %-14s %-10s %-12s %-12s\n",
		sampleEvery, "stage", "spans", "total(ms)", "mean(µs)")
	for _, ss := range stages {
		fmt.Printf("  %-14s %-10d %-12.3f %-12.3f\n",
			ss.Stage, ss.Count, float64(ss.TotalNs)/1e6, ss.MeanNs/1e3)
	}
}

// dumpTrace writes the span ring as Chrome trace-event JSON (Perfetto-
// loadable). A Server without telemetry, or an empty path, is a no-op.
func dumpTrace(srv liveupdate.Server, path string) {
	if path == "" {
		return
	}
	tel := liveupdate.ServerTelemetry(srv)
	if tel == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("-trace-out: %v", err)
	}
	if err := tel.WriteTrace(f); err != nil {
		f.Close()
		fatalf("-trace-out: writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("-trace-out: %v", err)
	}
	fmt.Printf("\ntelemetry trace written to %s (load at ui.perfetto.dev)\n", path)
}

// runServer is -listen mode: the gateway is already accepting; hold the
// process open until SIGINT/SIGTERM, then print the final statistics —
// including the wire admission ledger — and shut down gracefully.
func runServer(gw *liveupdate.Gateway, replicas int, telemetry, pprofOn bool, traceOut string, faultPlan liveupdate.FaultPlan) {
	fmt.Printf("liveupdate-serve %s: listening on %s (replicas=%d)\n",
		liveupdate.Version, gw.Addr(), replicas)
	fmt.Println("drive me from another process: liveupdate-serve -connect", gw.Addr())
	if faultPlan.Enabled() {
		fmt.Printf("fault injection armed (seed %d): %s\n", faultPlan.Seed, faultPlan)
	}
	if telemetry {
		extra := ""
		if pprofOn {
			extra = " /debug/pprof/"
		}
		fmt.Printf("observability: GET /metrics /debug/vars /trace%s (never shed by admission)\n", extra)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig

	st := gw.Stats()
	fmt.Printf("\nfinal: served=%d P99=%.3fms violations=%.4f trainSteps=%d virtTime=%.2fs\n",
		st.Served, st.P99*1000, st.ViolationRate, st.TrainSteps, st.VirtualTime)
	printWireTable(st.Wire)
	dumpTrace(gw, traceOut)
	if err := gw.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
}

// clientConfig carries the -connect mode knobs.
type clientConfig struct {
	conns       int
	requests    int
	report      int
	seed        uint64
	concurrency int
	batch       int
	profile     string // fallback when the server's handshake has no profile
}

// runClient is -connect mode: dial the remote gateway (retrying briefly so a
// just-started server wins the race), synthesize the workload the server
// advertises, and pump it through the wire with the same concurrent driver
// used in-process.
func runClient(addr string, cfg clientConfig) {
	var remote *liveupdate.RemoteServer
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		remote, err = liveupdate.Dial(addr, liveupdate.DialConfig{Conns: cfg.conns})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	defer remote.Close()

	profileName := remote.Info().Profile
	if profileName == "" {
		profileName = cfg.profile
	}
	profile, err := liveupdate.ProfileByName(profileName)
	if err != nil {
		fatalf("resolving remote profile: %v", err)
	}
	gen := liveupdate.NewWorkload(profile, cfg.seed^0x5e)

	fmt.Printf("liveupdate-serve %s: driving %s (profile=%s server-replicas=%d) with %d conns, %d workers, batch %d\n",
		liveupdate.Version, addr, profile.Name, remote.Info().Replicas, cfg.conns, cfg.concurrency, cfg.batch)

	rep, err := liveupdate.Drive(remote, gen, liveupdate.DriveConfig{
		Requests:      cfg.requests,
		Workers:       cfg.concurrency,
		BatchSize:     cfg.batch,
		Seed:          cfg.seed,
		ProgressEvery: cfg.report,
		OnProgress: func(served uint64) {
			fmt.Printf("  %d/%d served, %d sheds absorbed\n", served, cfg.requests, remote.Shed429())
		},
	})
	if err != nil {
		fatalf("drive: %v", err)
	}

	fmt.Printf("\ndrive: %d workers over %d wire lane(s): %d req in %v wall (%.0f req/s wall)\n",
		rep.Workers, rep.Shards, rep.Served, rep.Elapsed.Round(time.Millisecond), rep.QPS)
	if rep.BatchSize > 1 && rep.Batches > 0 {
		fmt.Printf("batching: cap %d, %d wire calls, %.2f req/call mean\n",
			rep.BatchSize, rep.Batches, float64(rep.Served)/float64(rep.Batches))
	}
	st, err := remote.FetchStats()
	if err != nil {
		fatalf("fetching final stats: %v", err)
	}
	fmt.Printf("server: served=%d P99=%.3fms violations=%.4f trainSteps=%d virtTime=%.2fs\n",
		st.Served, st.P99*1000, st.ViolationRate, st.TrainSteps, st.VirtualTime)
	printWireTable(st.Wire)

	var accepted, shed uint64
	for _, ep := range st.Wire {
		accepted += ep.Accepted
		shed += ep.Shed
	}
	// One greppable line for scripts (CI asserts on it): totals across
	// endpoints, plus the client's view of the sheds and faults it retried
	// through and the requests it abandoned (gaveup must be 0 for a drive
	// that returned without error).
	fmt.Printf("wire-total: accepted=%d shed=%d client-retries=%d transport-retries=%d gaveup=%d retry-wait=%s\n",
		accepted, shed, remote.Shed429(), remote.TransportRetries(), remote.GaveUp(),
		remote.RetryWait().Round(time.Millisecond))
}

// printWireTable renders the per-endpoint admission ledger.
func printWireTable(eps []liveupdate.EndpointStats) {
	if len(eps) == 0 {
		return
	}
	fmt.Printf("wire admission:\n  %-12s %-10s %-8s %-9s %-7s\n", "endpoint", "accepted", "shed", "inflight", "queued")
	for _, ep := range eps {
		fmt.Printf("  %-12s %-10d %-8d %-9d %-7d\n", ep.Endpoint, ep.Accepted, ep.Shed, ep.Inflight, ep.Queued)
	}
}
