// Package driver pumps a request trace through a Server from N client
// goroutines — the load-generation layer that turns the thread-safe serving
// stack into measured parallel throughput.
//
// # Determinism
//
// The driver is built so that every virtual-time result is identical no
// matter how many workers drive the load:
//
//   - One sequencer goroutine draws samples from the workload in trace
//     order, so the generated stream never depends on worker count.
//   - Each sample is routed to its shard (a Cluster replica) at sequencing
//     time, through the server's own deterministic routing, and delivered
//     over a FIFO queue owned by exactly one worker (shard % workers). A
//     shard's requests are therefore served in trace order regardless of how
//     workers interleave in wall-clock time.
//   - Each worker owns a private RNG stream seeded from (Seed, worker id)
//     for its latency reservoir, so per-worker reports are reproducible
//     run-to-run at a fixed seed and concurrency.
//
// Wall-clock fields of the Report (Elapsed, QPS, per-worker Busy) are real
// measured time and naturally vary between runs; everything derived from the
// virtual clock does not.
//
// # Batching
//
// Every serve call is one sharded.ServeShardBatch. With Config.BatchSize > 1
// each lane worker opportunistically coalesces consecutive same-shard queued
// items into that call — the zero-allocation amortized fast path through the
// serving stack. Coalescing never reorders a queue and never waits for a
// batch to fill, so per-shard request order — and with it every virtual-time
// statistic, worker-count invariance included — is identical to unbatched
// driving (TestDriveBatchedMatchesUnbatched).
//
// # Chaos schedules
//
// A drive over an elasticServer can carry a fleet.Schedule of membership
// events (kill/replace/join/leave/scale) pinned to virtual timestamps. The
// sequencer evaluates the schedule at drain points — every ChaosEvery
// routed requests it waits for all in-flight requests to finish, reads the
// fleet's virtual clock, and applies every due event. Over a drained trace
// prefix the fleet clock depends only on which requests were served and
// where they were routed, both of which are deterministic, so the request
// index at which each event lands (and with it every downstream
// virtual-time statistic) is identical for any worker count. Shard lanes of
// replicas that join mid-drive attach to workers by the same static
// slot%workers rule; lanes of failed replicas simply stop receiving routed
// traffic.
package driver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/fleet"
	"liveupdate/internal/metrics"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// Server is the minimal serving surface the driver needs; it is structurally
// identical to the public liveupdate.Server interface (internal packages
// cannot import the root package).
type Server interface {
	Serve(trace.Sample) (core.Response, error)
	Stats() core.Stats
}

// sharded is the drive contract: a Server whose state is partitioned into
// independently-serving shards — a Cluster's replicas, a wire client's
// connection lanes. The driver routes each sample once, deterministically,
// at sequencing time, serves different shards from different workers in
// parallel, and hands each worker's run of consecutive same-shard items (up
// to Config.BatchSize) to one ServeShardBatch call. A Server that is not
// sharded (a single System, a gateway) is driven as one lane.
type sharded interface {
	Server
	// NumShards returns the number of independent shards (≥ 1).
	NumShards() int
	// ShardOf routes one sample to a shard. Called from the sequencer
	// goroutine only, in trace order.
	ShardOf(trace.Sample) int
	// ServeShardBatch serves pre-routed same-shard samples in order, filling
	// resps (same length) with the per-request responses.
	ServeShardBatch(shard int, samples []trace.Sample, resps []core.Response) error
}

// oneLane drives a Server that is not sharded as a single shard. A run goes
// to the server's own ServeBatch when it has one, and to one Serve per
// sample otherwise.
type oneLane struct {
	Server
	batch interface {
		ServeBatch([]trace.Sample, []core.Response) error
	}
}

func (l oneLane) NumShards() int           { return 1 }
func (l oneLane) ShardOf(trace.Sample) int { return 0 }

func (l oneLane) ServeShardBatch(_ int, samples []trace.Sample, resps []core.Response) error {
	if l.batch != nil {
		return l.batch.ServeBatch(samples, resps)
	}
	for i := range samples {
		var err error
		if resps[i], err = l.Serve(samples[i]); err != nil {
			return err
		}
	}
	return nil
}

// elasticServer is a sharded server whose replica membership can change
// while it serves — a Cluster. The driver needs it to run a chaos
// schedule: events apply through ApplyChaos, and VirtualNow anchors the
// schedule's virtual timestamps.
type elasticServer interface {
	sharded
	// ApplyChaos applies one membership event (kill/replace/join/leave/
	// scale).
	ApplyChaos(fleet.Event) error
	// VirtualNow returns the fleet's virtual clock.
	VirtualNow() float64
}

// queueDepth bounds each worker's request queue; the sequencer blocks when a
// queue is full (closed-loop back-pressure).
const queueDepth = 128

// Config configures a drive.
type Config struct {
	// Requests is the number of samples to pump (required, > 0).
	Requests int

	// Workers is the number of client goroutines. Zero or negative defaults
	// to GOMAXPROCS. Parallelism is additionally bounded by the server's
	// shard count: with W workers and S shards, min(W, S) workers carry
	// load and the rest idle (and say so in their WorkerStats).
	Workers int

	// Seed seeds the per-worker RNG streams used for latency reservoir
	// sampling. The workload itself carries its own seed.
	Seed uint64

	// ProgressEvery, when > 0 with OnProgress set, invokes OnProgress after
	// every ProgressEvery served requests (calls are serialized).
	ProgressEvery int
	OnProgress    func(served uint64)

	// Chaos is a scripted membership-event schedule applied during the
	// drive; it requires a server implementing elasticServer. Events fire at
	// deterministic drain points: every ChaosEvery routed requests the
	// sequencer waits for all in-flight requests to complete, reads the
	// fleet's virtual clock — which, over a drained prefix of the trace, is
	// a pure function of (workload seed, schedule so far) — and applies
	// every event whose timestamp has been reached. The request index at
	// which each event lands is therefore identical for any worker count.
	Chaos fleet.Schedule

	// ChaosEvery is the drain-point cadence in requests (default 64).
	// Smaller values tighten how closely event timestamps are honored at
	// the cost of more frequent pipeline drains.
	ChaosEvery int

	// BatchSize, when > 1, lets each lane worker coalesce up to BatchSize
	// consecutive same-shard queued requests into one ServeShardBatch call.
	// Coalescing is opportunistic — a worker never waits for a batch to
	// fill, so batches only form when the queue runs ahead of the server —
	// and order-preserving, so virtual-time statistics are identical to
	// unbatched driving at any worker count. 0 or 1 disables batching.
	BatchSize int
}

// reservoirCap bounds per-worker latency reservoirs (algorithm R).
const reservoirCap = 1024

// WorkerStats is one worker's share of a drive.
type WorkerStats struct {
	Worker      int           // worker index
	Shards      []int         // shards this worker owned (empty = idle)
	Served      uint64        // requests this worker served
	Batches     uint64        // serve calls issued (== Served when unbatched)
	Busy        time.Duration // wall-clock time spent inside Serve
	MeanLatency float64       // mean virtual latency of this worker's requests, seconds
	P99Latency  float64       // reservoir-estimated virtual P99, seconds (NaN if idle)
}

// Report summarizes a drive; wall-clock fields are measured. For a fixed
// workload seed every virtual-time field is the same at any worker count and
// batch size (per-worker fields at a fixed driver seed and worker count),
// with one exception. Under a Cluster's periodic-sync pipeline a snapshot
// lands whenever its goroutine runs, so the sync bill and the adapter census
// vary run to run: in Final, SyncBytes, SyncSeconds and its compute/publish
// split, SyncWireBytes, SyncDeltaSavedBytes, SyncCompressSavedBytes,
// SyncCompressSeconds, CatchUpBytes and CatchUpSeconds, and LoRAHotRows and
// MemoryOverhead, fleet-wide and per replica. With periodic syncs off and SyncNow called
// between drives, those are deterministic too.
type Report struct {
	Requests  int    // requests asked for
	Served    uint64 // requests actually served (== Requests unless cancelled)
	Workers   int    // client goroutines
	Shards    int    // server shards driven
	BatchSize int    // coalescing cap, max(Config.BatchSize, 1)
	Batches   uint64 // serve calls issued across all workers

	Elapsed time.Duration // wall-clock drive duration
	QPS     float64       // Served / Elapsed (wall-clock throughput)

	VirtualTime float64 // server's virtual clock after the drive, seconds
	VirtualQPS  float64 // Served / VirtualTime (simulated throughput)

	Cancelled bool // context cancelled before all requests were served

	// Chaos lists the schedule events applied during the drive, in
	// application order; ChaosSkipped counts scheduled events whose virtual
	// timestamp the trace never reached. Both are deterministic for a fixed
	// (workload seed, schedule), regardless of worker count.
	Chaos        []AppliedEvent
	ChaosSkipped int

	PerWorker []WorkerStats // per-worker breakdown, in worker order
	// Final is the server's stats snapshot taken after the drive. Its sync
	// bill (SyncSeconds and its compute/publish/compress split,
	// SyncWireBytes) is cumulative over the server's life, not this drive's.
	Final core.Stats

	// Stages is the sampled wall-clock stage-latency breakdown of this
	// drive (route, queue wait, forward, commit, sync publish), present only
	// when the server carries telemetry with stage tracing enabled. Stages
	// that recorded no spans during the drive are omitted. Wall-clock
	// measurements: not part of the determinism contract.
	Stages []StageStat
}

// StageStat is one pipeline stage's sampled wall-clock timing over a drive.
type StageStat struct {
	Stage   string  // stage name (metrics.Stage.String())
	Count   uint64  // sampled spans recorded during the drive
	TotalNs int64   // summed span duration, nanoseconds
	MeanNs  float64 // TotalNs / Count
}

// AppliedEvent records one chaos event's application point.
type AppliedEvent struct {
	Event   fleet.Event
	Request int     // trace index the sequencer was about to route
	Virtual float64 // fleet virtual clock at the drain point, seconds
}

// drainGate lets the sequencer wait until every routed request has been
// served — the quiescent point at which chaos events apply. It is active
// only when a chaos schedule is present, so chaos-free drives pay nothing.
type drainGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	aborted  bool
}

func newDrainGate() *drainGate {
	g := &drainGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *drainGate) add() {
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
}

func (g *drainGate) done() {
	g.mu.Lock()
	g.inflight--
	if g.inflight == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// abort wakes any waiter permanently (drive cancelled or failed).
func (g *drainGate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wait blocks until in-flight work drains; false means the drive aborted.
func (g *drainGate) wait() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inflight > 0 && !g.aborted {
		g.cond.Wait()
	}
	return !g.aborted
}

// item is one routed request in flight from the sequencer to a worker.
type item struct {
	shard  int
	sample trace.Sample
}

// Drive pumps cfg.Requests samples from next through srv. It returns a
// non-nil error only for configuration errors or a Serve error (which
// aborts the drive); context cancellation is reported via Report.Cancelled
// with a nil error, leaving the partial report usable.
func Drive(ctx context.Context, srv Server, next func() trace.Sample, cfg Config) (Report, error) {
	if srv == nil {
		return Report{}, fmt.Errorf("driver: nil server")
	}
	if next == nil {
		return Report{}, fmt.Errorf("driver: nil workload")
	}
	if cfg.Requests <= 0 {
		return Report{}, fmt.Errorf("driver: Requests must be positive, got %d", cfg.Requests)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	lanes, ok := srv.(sharded)
	if !ok {
		bs, _ := srv.(interface {
			ServeBatch([]trace.Sample, []core.Response) error
		})
		lanes = oneLane{Server: srv, batch: bs}
	}
	shards := lanes.NumShards()
	if shards < 1 {
		return Report{}, fmt.Errorf("driver: server reports %d shards", shards)
	}
	batchCap := max(cfg.BatchSize, 1)

	// Stage-breakdown baseline: when the server carries telemetry with stage
	// tracing on, the report diffs the tracer's per-stage aggregates across
	// the drive, so Stages covers this drive only — not whatever ran before.
	var driveTracer *metrics.Tracer
	var stagesBefore [metrics.NumStages]metrics.StageAgg
	if tp, ok := srv.(interface{ Telemetry() *metrics.Telemetry }); ok {
		driveTracer = tp.Telemetry().Tracer()
		stagesBefore = driveTracer.StageTotals()
	}

	var elastic elasticServer
	chaos := cfg.Chaos.Sorted()
	if len(chaos) > 0 {
		if err := chaos.Validate(); err != nil {
			return Report{}, fmt.Errorf("driver: %w", err)
		}
		e, ok := srv.(elasticServer)
		if !ok {
			return Report{}, fmt.Errorf("driver: chaos schedule needs an elastic server, got %T", srv)
		}
		elastic = e
	}
	checkEvery := cfg.ChaosEvery
	if checkEvery <= 0 {
		checkEvery = 64
	}

	// ctx drives external cancellation; abort stops the drive on the first
	// serve error without overloading the caller's context.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A context-aware server (the network client) gets the drive context so
	// its retry sleeps and per-attempt deadlines die with the drive. Rebind
	// Background on exit: post-drive calls must outlive this cancel.
	if cb, ok := srv.(interface{ BindContext(context.Context) }); ok {
		cb.BindContext(ctx)
		defer cb.BindContext(context.Background())
	}
	var (
		errOnce  sync.Once
		driveErr error
	)
	abort := func(err error) {
		errOnce.Do(func() { driveErr = err })
		cancel()
	}

	queues := make([]chan item, workers)
	for w := range queues {
		queues[w] = make(chan item, queueDepth)
	}
	// Static shard→worker ownership. It extends to shards that do not exist
	// yet: a replica joining mid-drive (chaos) gets a lane on worker
	// slot%workers with per-shard FIFO order intact, no queue rebuild.
	ownerOf := func(shard int) int { return shard % workers }

	var gate *drainGate
	if elastic != nil {
		gate = newDrainGate()
		// Wake a draining sequencer if the drive dies while it waits.
		go func() {
			<-ctx.Done()
			gate.abort()
		}()
	}

	var progress atomic.Uint64
	var progressMu sync.Mutex
	perWorker := make([]WorkerStats, workers)

	// Chaos bookkeeping: written only by the sequencer, read after its
	// WaitGroup settles.
	var applied []AppliedEvent
	chaosSkipped := 0

	start := time.Now()

	// Sequencer: the only goroutine that touches the workload and the
	// router, so sample generation and shard assignment are one
	// deterministic sequence. FIFO channels with static shard→worker
	// ownership then preserve per-shard order end to end.
	var seqWG sync.WaitGroup
	seqWG.Add(1)
	go func() {
		defer seqWG.Done()
		defer func() {
			for _, q := range queues {
				close(q)
			}
		}()
		seqShards := shards
		nextEv := 0
		// Computed in a defer so a cancelled or aborted drive still reports
		// how many scheduled events never fired.
		defer func() { chaosSkipped = len(chaos) - nextEv }()
		for i := 0; i < cfg.Requests; i++ {
			// Chaos drain point: all in-flight requests complete, so the
			// fleet clock read here is a pure function of the served prefix
			// — the same at this request index for any worker count.
			if gate != nil && nextEv < len(chaos) && i > 0 && i%checkEvery == 0 {
				if !gate.wait() {
					return
				}
				now := elastic.VirtualNow()
				for nextEv < len(chaos) && chaos[nextEv].At.Seconds() <= now {
					ev := chaos[nextEv]
					if err := elastic.ApplyChaos(ev); err != nil {
						abort(fmt.Errorf("driver: chaos event %s: %w", ev, err))
						return
					}
					applied = append(applied, AppliedEvent{Event: ev, Request: i, Virtual: now})
					nextEv++
				}
				seqShards = elastic.NumShards() // capacity may have grown
			}
			s := next()
			shard := lanes.ShardOf(s)
			if shard < 0 || shard >= seqShards {
				abort(fmt.Errorf("driver: ShardOf routed request %d to shard %d of %d", i, shard, seqShards))
				return
			}
			if gate != nil {
				gate.add()
			}
			select {
			case queues[ownerOf(shard)] <- item{shard: shard, sample: s}:
			case <-ctx.Done():
				if gate != nil {
					gate.done()
				}
				return
			}
		}
	}()

	var workWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			rng := tensor.NewRNG(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1)))
			reservoir := make([]float64, 0, reservoirCap)
			var seen, batches uint64
			var latSum float64
			var busy time.Duration
			q := queues[w]
			batch := make([]trace.Sample, 0, batchCap)
			resps := make([]core.Response, batchCap)
			var held *item // same-queue item that broke a coalescing run
			var heldItem item
		loop:
			for {
				// First item of the next serve call: a held-over item from
				// the previous coalescing run, or a blocking receive.
				var first item
				if held != nil {
					first, held = *held, nil
				} else {
					select {
					case it, ok := <-q:
						if !ok {
							break loop // sequencer done, queue drained
						}
						first = it
					case <-ctx.Done():
						break loop
					}
				}
				shard := first.shard
				batch = append(batch[:0], first.sample)
				// Opportunistic coalescing: drain consecutive queued items
				// for the same shard, never waiting for more to arrive.
				// Stopping at the first foreign-shard item preserves the
				// queue's FIFO order for every shard this worker owns.
			fill:
				for batchCap > 1 && len(batch) < batchCap {
					select {
					case it, ok := <-q:
						if !ok {
							break fill // closed: serve what we have, then exit via the outer receive
						}
						if it.shard != shard {
							heldItem = it
							held = &heldItem
							break fill
						}
						batch = append(batch, it.sample)
					default:
						break fill
					}
				}

				t0 := time.Now()
				err := lanes.ServeShardBatch(shard, batch, resps[:len(batch)])
				busy += time.Since(t0)
				batches++
				if gate != nil {
					for range batch {
						gate.done()
					}
				}
				if err != nil {
					abort(fmt.Errorf("driver: worker %d shard %d: %w", w, shard, err))
					break loop
				}
				for _, resp := range resps[:len(batch)] {
					seen++
					latSum += resp.Latency
					// Algorithm R reservoir on the worker's private stream.
					if len(reservoir) < reservoirCap {
						reservoir = append(reservoir, resp.Latency)
					} else if j := rng.Intn(int(seen)); j < reservoirCap {
						reservoir[j] = resp.Latency
					}
					if cfg.OnProgress != nil && cfg.ProgressEvery > 0 {
						if n := progress.Add(1); n%uint64(cfg.ProgressEvery) == 0 {
							progressMu.Lock()
							cfg.OnProgress(n)
							progressMu.Unlock()
						}
					}
				}
			}
			ws := WorkerStats{Worker: w, Served: seen, Batches: batches, Busy: busy}
			ws.P99Latency = math.NaN() // idle: quantile undefined, mirror Cluster.Stats
			if seen > 0 {
				ws.MeanLatency = latSum / float64(seen)
				ws.P99Latency = metrics.Quantile(reservoir, 0.99)
			}
			perWorker[w] = ws
		}(w)
	}

	workWG.Wait()
	seqWG.Wait()
	elapsed := time.Since(start)

	// Shard count and lane ownership are reported against the final
	// topology: chaos may have grown the slot capacity mid-drive.
	shards = lanes.NumShards()
	for s := 0; s < shards; s++ {
		w := ownerOf(s)
		perWorker[w].Shards = append(perWorker[w].Shards, s)
	}

	var servedTotal, batchTotal uint64
	for _, ws := range perWorker {
		servedTotal += ws.Served
		batchTotal += ws.Batches
	}
	rep := Report{
		Requests:  cfg.Requests,
		Served:    servedTotal,
		Workers:   workers,
		Shards:    shards,
		BatchSize: batchCap,
		Batches:   batchTotal,
		Elapsed:   elapsed,
		// A drive that finished all its requests is complete, even if the
		// context happened to expire in the same instant.
		Cancelled:    driveErr == nil && ctx.Err() != nil && servedTotal < uint64(cfg.Requests),
		Chaos:        applied,
		ChaosSkipped: chaosSkipped,
		PerWorker:    perWorker,
		Final:        srv.Stats(),
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Served) / elapsed.Seconds()
	}
	rep.VirtualTime = rep.Final.VirtualTime
	if rep.VirtualTime > 0 {
		rep.VirtualQPS = float64(rep.Served) / rep.VirtualTime
	}
	if driveTracer != nil {
		after := driveTracer.StageTotals()
		for s := 0; s < metrics.NumStages; s++ {
			count := after[s].Count - stagesBefore[s].Count
			if count == 0 {
				continue
			}
			total := after[s].SumNs - stagesBefore[s].SumNs
			rep.Stages = append(rep.Stages, StageStat{
				Stage:   metrics.Stage(s).String(),
				Count:   count,
				TotalNs: total,
				MeanNs:  float64(total) / float64(count),
			})
		}
	}
	return rep, driveErr
}
