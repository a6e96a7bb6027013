package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"liveupdate/internal/cluster"
	"liveupdate/internal/collective"
	"liveupdate/internal/core"
	"liveupdate/internal/driver"
	"liveupdate/internal/fleet"
	"liveupdate/internal/lora"
	"liveupdate/internal/metrics"
	"liveupdate/internal/trace"
)

// Reference counts of fleet_drive.
const (
	fleetMin       = 300000 / countDiv // requests of the first Drive, which carries the chaos script
	fleetPiece     = 5000              // requests of each further Drive, a piece (about 0.3 s), until -seconds is used up
	fleetMinPieces = 10                // pieces a run measures at least
	fleetPool      = 131072            // samples, replayed
	fleetReplicas  = 4
	fleetWorkers   = 2
	fleetBatch     = 16
)

// fleetChaos is ISSUE 11's script (@80s kill 1; @160s replace 1; @240s scale
// 5; @320s scale 4 over ~400 virtual seconds) with its timestamps scaled by
// the request count: the fleet clock advances ~1.33 virtual ms per request.
func fleetChaos(requests int) fleet.Schedule {
	span := float64(requests) * 400.0 / 300000 // virtual seconds the first Drive covers
	at := func(share float64) time.Duration { return time.Duration(share * span * float64(time.Second)) }
	return fleet.Schedule{
		{At: at(0.2), Action: fleet.Kill, Arg: 1},
		{At: at(0.4), Action: fleet.Replace, Arg: 1},
		{At: at(0.6), Action: fleet.Scale, Arg: 5},
		{At: at(0.8), Action: fleet.Scale, Arg: 4},
	}
}

// newFleet builds the 4-replica hash-routed fleet with asynchronous sync
// every 500 virtual ms that fleet_drive and wire_batch share.
func newFleet() (*cluster.Cluster, error) {
	router, err := cluster.NewRouter(cluster.Hash)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		Base:      core.DefaultOptions(criteo(), sysSeed),
		Replicas:  fleetReplicas,
		Router:    router,
		SyncEvery: 500 * time.Millisecond,
	})
}

// Span names of the fleet shim.
const (
	spFleetCall = iota
	spFleetChaos
)

var fleetSpanNames = []string{"cluster.serve_shard_batch", "fleet.apply_chaos"}

// fleetShim is the boundary shim handed to driver.Drive in place of the
// cluster. Untraced it only times each ServeShardBatch call and keeps the
// served probabilities; traced it also records a span per call, tagged with
// the schedule index of the batch's first request.
type fleetShim struct {
	c *cluster.Cluster

	mu      sync.Mutex
	callNs  []int64 // of the Drive under way
	callSum int64   // ns, over every Drive
	served  int64
	probs   []float64
	labels  []int
	keepAUC bool

	// Traced only. ShardOf runs once per request, in schedule order, on the
	// sequencer goroutine, and each shard's requests are served in that
	// order, so a per-shard FIFO of schedule indices recovers request ids.
	tr      *tracer
	lanes   []*lane // one per driver worker (shard % workers)
	seq     *lane   // the sequencer goroutine: chaos events
	next    int
	ids     map[int][]int
	eventNs []int64
}

func (f *fleetShim) Serve(s trace.Sample) (core.Response, error) { return f.c.Serve(s) }
func (f *fleetShim) Stats() core.Stats                           { return f.c.Stats() }
func (f *fleetShim) NumShards() int                              { return f.c.NumShards() }
func (f *fleetShim) VirtualNow() float64                         { return f.c.VirtualNow() }

func (f *fleetShim) ServeShard(shard int, s trace.Sample) (core.Response, error) {
	return f.c.ServeShard(shard, s)
}

func (f *fleetShim) ShardOf(s trace.Sample) int {
	shard := f.c.ShardOf(s)
	if f.tr != nil {
		f.mu.Lock()
		f.ids[shard] = append(f.ids[shard], f.next)
		f.mu.Unlock()
		f.next++
	}
	return shard
}

func (f *fleetShim) ServeShardBatch(shard int, samples []trace.Sample, resps []core.Response) error {
	var ln *lane
	if f.tr != nil {
		f.mu.Lock()
		req := f.ids[shard][0]
		f.ids[shard] = f.ids[shard][len(samples):]
		f.mu.Unlock()
		ln = f.lanes[shard%len(f.lanes)]
		ln.begin(spFleetCall, req)
	}
	t0 := time.Now()
	err := f.c.ServeShardBatch(shard, samples, resps)
	dur := int64(time.Since(t0))
	if ln != nil {
		ln.end()
	}
	f.mu.Lock()
	f.callNs = append(f.callNs, dur)
	f.callSum += dur
	f.served += int64(len(samples))
	if f.keepAUC && err == nil {
		for i := range samples {
			f.probs = append(f.probs, resps[i].Prob)
			f.labels = append(f.labels, samples[i].Label)
		}
	}
	f.mu.Unlock()
	return err
}

func (f *fleetShim) ApplyChaos(ev fleet.Event) error {
	if f.tr != nil {
		f.seq.begin(spFleetChaos, f.next)
	}
	t0 := time.Now()
	err := f.c.ApplyChaos(ev)
	f.eventNs = append(f.eventNs, int64(time.Since(t0)))
	if f.tr != nil {
		f.seq.end()
	}
	return err
}

func newFleetShim(c *cluster.Cluster, tr *tracer) *fleetShim {
	f := &fleetShim{c: c, callNs: make([]int64, 0, 1<<16), tr: tr}
	if tr != nil {
		f.ids = map[int][]int{}
		for w := 0; w < fleetWorkers; w++ {
			f.lanes = append(f.lanes, tr.lane(fmt.Sprintf("driver worker %d", w)))
		}
		f.seq = tr.lane("driver sequencer")
	}
	return f
}

// fleetRun is what one pass over fleet_drive measured.
type fleetRun struct {
	Requested, Served int64
	Meter             meter
	Timer             pieceTimer    // the Drives after the first, one piece each
	Elapsed           time.Duration // Σ Report.Elapsed
	Busy              time.Duration // Σ PerWorker.Busy
	Batches           uint64
	First             driver.Report // the chaos-carrying Drive
	Final             core.Stats
	AUC               float64
	RSSMB             float64 // resident-set high-water mark after the first Drive
	Shim              *fleetShim
	Err               error
}

// driveFleet runs the first Drive (min requests, chaos script) and then
// further Drives of one piece each. With total == 0 it keeps going until
// budget is used up and fleetMinPieces were measured; otherwise it serves
// exactly total requests (the traced pass repeats the untraced pass's count).
func driveFleet(c *cluster.Cluster, pool []trace.Sample, o options, tr *tracer, total int64) fleetRun {
	shim := newFleetShim(c, tr)
	run := fleetRun{Shim: shim, Timer: pieceTimer{Lanes: fleetWorkers}}
	cursor := 0
	next := func() trace.Sample {
		s := pool[cursor%len(pool)]
		cursor++
		return s
	}
	minN, piece := o.n(fleetMin), o.n(fleetPiece)
	cfg := driver.Config{Requests: minN, Workers: fleetWorkers, BatchSize: fleetBatch, Seed: sysSeed,
		Chaos: fleetChaos(minN)}
	// Drain points every 64 requests at full size; tighter when the run is
	// scaled down, so the script's timestamps are still all reached.
	if cfg.ChaosEvery = minN / 1000; cfg.ChaosEvery > 64 {
		cfg.ChaosEvery = 64
	} else if cfg.ChaosEvery < 1 {
		cfg.ChaosEvery = 1
	}
	budget := time.Duration(o.Seconds * float64(time.Second))
	shim.keepAUC = true
	settleHeap()
	for first := true; ; first = false {
		if !first {
			cfg.Chaos = nil
			cfg.Requests = piece
			if left := total - run.Requested; total > 0 && left < int64(piece) {
				cfg.Requests = int(left)
			}
		}
		shim.callNs = shim.callNs[:0]
		run.Meter.start()
		run.Timer.start()
		rep, err := driver.Drive(context.Background(), shim, next, cfg)
		if !first {
			run.Timer.stop(int(rep.Served), shim.callNs, 0.99)
		}
		run.Meter.stop()
		run.Requested += int64(cfg.Requests)
		run.Served += int64(rep.Served)
		run.Elapsed += rep.Elapsed
		run.Batches += rep.Batches
		for _, ws := range rep.PerWorker {
			run.Busy += ws.Busy
		}
		run.Final = rep.Final
		if first {
			run.First = rep
			run.RSSMB = peakRSSMB()
			shim.keepAUC = false
		}
		if err != nil {
			run.Err = err
			break
		}
		if total > 0 && run.Requested >= total ||
			total == 0 && run.Elapsed >= budget && len(run.Timer.Pieces) >= fleetMinPieces {
			break
		}
	}
	run.AUC = metrics.AUC(shim.probs, shim.labels)
	return run
}

// fleetEnv is one set-up fleet_drive: the pool and the fleet.
type fleetEnv struct {
	pool  []trace.Sample
	genNs float64
	c     *cluster.Cluster
}

func setupFleet(o options) (env fleetEnv, err error) {
	if env.pool, env.genNs, err = genPool(criteo(), o.Seed, o.n(fleetPool)); err == nil {
		env.c, err = newFleet()
	}
	return env, err
}

func runFleetDrive(o options) (*result, error) {
	r := newResult("fleet_drive", o)

	build := func() (fleetEnv, error) { return setupFleet(o) }
	env, own, err := timed(build)
	if err != nil {
		return nil, err
	}
	pool, genNs := env.pool, env.genNs

	run := driveFleet(env.c, pool, o, nil, 0)
	if run.Err != nil {
		return nil, run.Err
	}
	setups, err := moreSetups(o, own, build, func(fleetEnv) {})
	if err != nil {
		return nil, err
	}
	n := float64(run.Served)
	r.Attempted, r.Failed = run.Requested, run.Requested-run.Served
	q := r.endToEnd(setups, run.Timer.Pieces, float64(run.Meter.Mallocs)/n, run.RSSMB, run.AUC)
	r.note("%d requests in %.2fs of Drive (first Drive %d with the chaos script, then pieces of %d), %d workers, batch <= %d, closed loop; a call is one ServeShardBatch (%.1f samples); auc and virtual statistics from the first Drive",
		run.Served, run.Elapsed.Seconds(), run.First.Requests, o.n(fleetPiece), fleetWorkers, fleetBatch, n/float64(run.Batches))
	checkFleet(r, run)
	if !o.Trace {
		r.finish()
		return r, nil
	}

	// Traced pass on a fresh fleet, same request count.
	c, err := newFleet()
	if err != nil {
		return nil, err
	}
	tr := newTracer(fleetSpanNames...)
	traced := driveFleet(c, pool, o, tr, run.Requested)
	if traced.Err != nil {
		return nil, traced.Err
	}
	r.check("traced pass served == untraced", traced.Served == run.Served, "%d vs %d", traced.Served, run.Served)
	same := fingerprintOf(traced.First.Final) == fingerprintOf(run.First.Final)
	r.check("traced pass fingerprint", same, "untraced %+v, traced %+v", fingerprintOf(run.First.Final), fingerprintOf(traced.First.Final))

	first := run.First.Final
	r.set("cluster.serve_call_us_p50", q.P50)
	r.set("cluster.serve_call_us_p99", q.Tail)
	r.set("cluster.syncs", float64(first.Syncs))
	r.set("collective.sync_wire_mb", float64(first.SyncWireBytes)/1e6)
	r.set("collective.sync_compute_s", first.SyncComputeSeconds)
	r.set("collective.sync_publish_s", first.SyncPublishSeconds)
	r.set("fleet.catchup_mb", float64(first.CatchUpBytes)/1e6)
	r.set("fleet.joins", float64(first.Joins))
	if ev := traced.Shim.eventNs; len(ev) > 0 {
		sorted := append([]int64(nil), ev...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		r.set("fleet.event_ms_max", float64(sorted[len(sorted)-1])/1e6)
	}
	laneTime := float64(fleetWorkers) * run.Elapsed.Seconds()
	r.set("driver.batch_fill", n/float64(run.Batches))
	r.set("driver.lane_busy_share", run.Busy.Seconds()/laneTime)
	r.set("driver.overhead_ns_per_req", (laneTime*1e9-float64(run.Shim.callSum))/n)
	r.set("lora.rank_final", float64(run.Final.LoRARank))
	r.set("lora.hot_rows_final", float64(run.Final.LoRAHotRows))
	r.set("lora.overhead_pct", run.Final.MemoryOverhead*100)
	r.set("numasim.inf_hit_ratio", run.Final.InferenceHitRatio)
	r.set("core.train_tick_count", float64(run.Final.TrainSteps))
	r.set("trace.gen_ns", genNs)
	r.set("bench.virt_p99_ms", first.P99*1e3)
	r.set("bench.fail_ratio", float64(r.Failed)/float64(r.Attempted))
	r.set("bench.trace_overhead_pct", (1-run.Elapsed.Seconds()/traced.Elapsed.Seconds())*100)
	probeFleet(r, c, pool, o)
	probeKernels(r, pool, o)
	if err := writeTrace(tr, r.Workload, o); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func checkFleet(r *result, run fleetRun) {
	r.check("served == requested", run.Served == run.Requested && int64(run.Final.Served) == run.Requested,
		"driver %d, fleet %d of %d", run.Served, run.Final.Served, run.Requested)
	r.check("chaos events applied", len(run.First.Chaos) == 4 && run.First.ChaosSkipped == 0,
		"%d applied, %d skipped", len(run.First.Chaos), run.First.ChaosSkipped)
	r.checkAUC(run.AUC)
	if ovh := run.Final.MemoryOverhead * 100; ovh >= 2 {
		r.warn("lora.overhead_pct %.3f%% is at or above the paper's 2%% bound (report-only on the fleet)", ovh)
	}
}

// probeFleet fills the cluster and collective probes on the fleet the traced
// pass just drove: routing, one explicit sync, a priority merge over the live
// replicas' full states, and the sync payload codec.
func probeFleet(r *result, c *cluster.Cluster, pool []trace.Sample, o options) {
	i := 0
	r.set("cluster.route_ns", perOp(o.n(20000), func() { sink += float64(c.ShardOf(pool[i%len(pool)])); i++ }))
	t0 := nowNs()
	_, err := c.SyncNow()
	r.set("cluster.syncnow_ms", float64(nowNs()-t0)/1e6)
	r.check("cluster.SyncNow", err == nil, "%v", err)

	var states [][]lora.TableState
	for _, sys := range c.Members().ActiveSystems() {
		sys.Lock()
		states = append(states, sys.LoRA.ExportFull())
		sys.Unlock()
	}
	r.set("collective.merge_ns", perOp(3, func() {
		_, ms, err := collective.PriorityMerge(states)
		if err != nil {
			r.check("collective.PriorityMerge", false, "%v", err)
		}
		sink += float64(ms.RowsMerged)
	}))
	bytes := float64(lora.PayloadBytes(states[0]))
	ns := perOp(3, func() {
		data, err := collective.EncodePayload(states[0], 0)
		if err == nil {
			_, err = collective.DecodePayload(data)
		}
		if err != nil {
			r.check("collective payload round trip", false, "%v", err)
		}
	})
	r.set("collective.payload_mb_s", 2*bytes/1e6/(ns/1e9))
}
