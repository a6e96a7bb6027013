package liveupdate

// Benchmark harness: one Benchmark per paper table/figure (regenerating the
// experiment in quick mode) plus micro-benchmarks of the hot paths and the
// ablation benches DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers are simulation costs, not testbed performance;
// the experiment *outputs* (the virtual-time results) carry the comparison.

import (
	"net"
	"testing"
	"time"

	"liveupdate/internal/collective"
	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/experiments"
	"liveupdate/internal/lora"
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
	"liveupdate/internal/update"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := runner(experiments.Options{Seed: 7, Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkTable2Datasets(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFig3aUpdateRatio(b *testing.B)      { benchExperiment(b, "fig3a") }
func BenchmarkFig3bStalenessDecay(b *testing.B)   { benchExperiment(b, "fig3b") }
func BenchmarkFig4CPUUtilization(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5PowerOverhead(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6GradientPCA(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig8UpdateTimeline(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9SyncInterval(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10MemoryPressure(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11L3HitRatio(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12AccessCDF(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig14UpdateCost(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkTable3AUCComparison(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFig15AccuracyTrace(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16P99Ablation(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17MemoryFootprint(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18PowerUtilization(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19Scalability(b *testing.B)      { benchExperiment(b, "fig19") }

// --- Micro-benchmarks of the hot paths ---

func benchServingProfile() Profile {
	p := Profiles()["criteo"]
	p.NumTables = 4
	p.TableSize = 1000
	p.NumDense = 8
	p.MultiHot = []int{1, 1, 1, 2}
	return p
}

// BenchmarkServeRequest measures the end-to-end serving path: memory-model
// accesses, DLRM forward, ring-buffer push, latency tracking.
func BenchmarkServeRequest(b *testing.B) {
	p := benchServingProfile()
	sys, err := New(WithProfile(p), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	gen := NewWorkload(p, 2)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Serve(samples[i%len(samples)])
	}
}

// BenchmarkServeRequestNoAlloc measures the scoring half of the serving fast
// path in isolation: the DLRM forward through the LoRA embedding source, a
// batch of one on a pooled BatchScratch outside the node's bookkeeping lock.
// After warmup it performs zero heap allocations per request — CI's
// alloc-gate step fails the build if allocs/op ever reads above 0.
func BenchmarkServeRequestNoAlloc(b *testing.B) {
	p := benchServingProfile()
	srv, err := New(WithProfile(p), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	sys := srv.(*System)
	gen := NewWorkload(p, 2)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = gen.Next()
	}
	// Warm the node: populate LoRA rows via training ticks and fill the
	// scratch pool, so the measured region is the steady serving state.
	for i := 0; i < 256; i++ {
		if _, err := sys.Serve(samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Node.Predict(samples[i%len(samples)])
	}
}

// BenchmarkServeRequestTelemetry is BenchmarkServeRequest with the full
// telemetry surface live at the most expensive setting (every request traced,
// SampleEvery 1): the route/forward/commit spans, the serve counters, and the
// latency histogram all record on every serve. The delta against
// BenchmarkServeRequest is the whole cost of observing the serving path —
// the PR gate holds it under 2% ns/op.
func BenchmarkServeRequestTelemetry(b *testing.B) {
	p := benchServingProfile()
	sys, err := New(WithProfile(p), WithSeed(1), WithTelemetry(TelemetryConfig{SampleEvery: 1}))
	if err != nil {
		b.Fatal(err)
	}
	gen := NewWorkload(p, 2)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Serve(samples[i%len(samples)])
	}
}

// BenchmarkServeRequestTracedNoAlloc is BenchmarkServeRequestNoAlloc with
// stage tracing enabled and sampling every request: the forward span's
// StageStart/StageEnd pair (two clock reads, two atomic adds, one seqlock
// ring write) runs inside the measured region. The zero-allocation guarantee
// must survive telemetry — CI's alloc-gate step runs this benchmark alongside
// the untraced ones and fails the build if allocs/op ever reads above 0.
func BenchmarkServeRequestTracedNoAlloc(b *testing.B) {
	p := benchServingProfile()
	srv, err := New(WithProfile(p), WithSeed(1), WithTelemetry(TelemetryConfig{SampleEvery: 1}))
	if err != nil {
		b.Fatal(err)
	}
	sys := srv.(*System)
	gen := NewWorkload(p, 2)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = gen.Next()
	}
	for i := 0; i < 256; i++ {
		if _, err := sys.Serve(samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Node.Predict(samples[i%len(samples)])
	}
	b.StopTimer()
	totals := ServerTelemetry(srv).Tracer().StageTotals()
	if totals[metrics.StageForward].Count == 0 {
		b.Fatal("tracer recorded no forward spans — telemetry was not live in the measured region")
	}
	if totals[metrics.StageTrainTick].Count == 0 || totals[metrics.StageCommit].Count == 0 {
		b.Fatal("warm-up serves recorded no commit/train_tick spans — the tick is not traced as its own stage")
	}
}

// BenchmarkWireServeRequest measures the same end-to-end serving path as
// BenchmarkServeRequest, but through the network front end: JSON encode, a
// loopback TCP round trip through the admission gate, serve, JSON decode.
// The delta against BenchmarkServeRequest is the whole cost of the wire.
func BenchmarkWireServeRequest(b *testing.B) {
	p := benchServingProfile()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(WithProfile(p), WithSeed(1), WithListener(ln))
	if err != nil {
		b.Fatal(err)
	}
	gw := srv.(*Gateway)
	defer gw.Close()
	remote, err := Dial(ln.Addr().String(), DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	gen := NewWorkload(p, 2)
	samples := make([]Sample, 1024)
	for i := range samples {
		samples[i] = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.Serve(samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet builds the 4-replica hash-routed fleet both cluster-serving
// benchmarks share. Hash routing keeps the request→replica assignment
// deterministic, so the sequential and parallel benches do identical
// virtual-time work and their wall-clock ratio is a pure concurrency win.
func benchFleet(b *testing.B) (Server, *Workload) {
	b.Helper()
	p := benchServingProfile()
	srv, err := New(
		WithProfile(p),
		WithSeed(1),
		WithReplicas(4),
		WithRouter(HashRouter),
		WithSyncEvery(30*time.Second),
	)
	if err != nil {
		b.Fatal(err)
	}
	return srv, NewWorkload(p, 2)
}

// BenchmarkClusterServeSequential drives a 4-replica fleet one request at a
// time from a single goroutine — the pre-concurrency baseline.
func BenchmarkClusterServeSequential(b *testing.B) {
	srv, gen := benchFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterServeParallel drives the same fleet with 8 worker
// goroutines through Drive. Compared against the Sequential bench it shows
// the wall-clock speedup of parallel replica serving; the virtual-time
// Stats (Served, Violations, sync counts) are identical between the two —
// see TestDriveMatchesSequentialServe.
func BenchmarkClusterServeParallel(b *testing.B) {
	srv, gen := benchFleet(b)
	b.ResetTimer()
	rep, err := Drive(srv, gen, DriveConfig{Requests: b.N, Workers: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Served != uint64(b.N) {
		b.Fatalf("served %d of %d", rep.Served, b.N)
	}
	b.ReportMetric(rep.QPS, "req/s")
}

// BenchmarkClusterServeBatched drives the same fleet as the Sequential and
// Parallel benches with 8 workers AND lane coalescing (batch 16): queued
// same-shard requests are served through one ServeShardBatch call — one
// scratch, one fleet read lock, one node lock for the whole run. Virtual-time
// stats are identical to both siblings (TestDriveBatchedMatchesUnbatched);
// the req/call metric shows how full the opportunistic batches ran.
func BenchmarkClusterServeBatched(b *testing.B) {
	srv, gen := benchFleet(b)
	b.ResetTimer()
	rep, err := Drive(srv, gen, DriveConfig{Requests: b.N, Workers: 8, BatchSize: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Served != uint64(b.N) {
		b.Fatalf("served %d of %d", rep.Served, b.N)
	}
	b.ReportMetric(rep.QPS, "req/s")
	if rep.Batches > 0 {
		b.ReportMetric(float64(rep.Served)/float64(rep.Batches), "req/call")
	}
}

// BenchmarkClusterServeBatchedNoAlloc measures the batched cluster serving
// fast path in isolation: pre-routed same-shard batches served through
// ServeShardBatch into a caller-owned response slice, with the sync cadence
// long enough that no epoch fires mid-run and training disabled — like
// BenchmarkServeRequestNoAlloc, this gates the scoring path, not the train
// tail (whose adaptive LoRA lifecycle allocates by design when Algorithm 1
// prunes and re-materializes rows). After warmup (batch-scratch pool, the
// pooled probs buffer) it performs zero heap allocations per batch — CI's
// alloc-gate step fails the build if allocs/op ever reads above 0.
func BenchmarkClusterServeBatchedNoAlloc(b *testing.B) {
	p := benchServingProfile()
	srv, err := New(
		WithProfile(p),
		WithSeed(1),
		WithReplicas(4),
		WithRouter(HashRouter),
		WithSyncEvery(30*time.Second),
		WithTraining(false),
	)
	if err != nil {
		b.Fatal(err)
	}
	gen := NewWorkload(p, 2)
	cl := srv.(*Cluster)
	const batch = 16
	// A hash router maps a fixed sample set to fixed shards; bucket warmup
	// samples per shard so each measured batch is one same-shard run.
	byShard := make(map[int][]Sample)
	for i := 0; i < 1024; i++ {
		s := gen.Next()
		shard := cl.ShardOf(s)
		byShard[shard] = append(byShard[shard], s)
	}
	var batches [][]Sample
	var shards []int
	for shard, ss := range byShard {
		for len(ss) >= batch {
			batches = append(batches, ss[:batch])
			shards = append(shards, shard)
			ss = ss[batch:]
		}
	}
	if len(batches) == 0 {
		b.Fatal("no full same-shard batches")
	}
	resps := make([]Response, batch)
	// Warm every replica's pools and LoRA state.
	for i := 0; i < 4*len(batches); i++ {
		if err := cl.ServeShardBatch(shards[i%len(shards)], batches[i%len(batches)], resps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.ServeShardBatch(shards[i%len(shards)], batches[i%len(batches)], resps); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSyncFleet builds a 4-replica hash-routed fleet with an aggressive
// periodic sync cadence (every 100ms of virtual time → a sync every few
// hundred requests), so sync handling is a measurable share of the drive.
func benchSyncFleet(b *testing.B) (Server, *Workload) {
	b.Helper()
	p := benchServingProfile()
	srv, err := New(
		WithProfile(p),
		WithSeed(1),
		WithReplicas(4),
		WithRouter(HashRouter),
		WithSyncEvery(100*time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	return srv, NewWorkload(p, 2)
}

// BenchmarkClusterSync drives a syncing fleet with 8 workers: snapshots,
// background merges, and atomic per-replica publication run beside serving,
// which never blocks behind a fleet-wide lock.
func BenchmarkClusterSync(b *testing.B) {
	srv, gen := benchSyncFleet(b)
	b.ResetTimer()
	rep, err := Drive(srv, gen, DriveConfig{Requests: b.N, Workers: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Served != uint64(b.N) {
		b.Fatalf("served %d of %d", rep.Served, b.N)
	}
	b.ReportMetric(rep.QPS, "req/s")
	b.ReportMetric(float64(rep.Final.Syncs), "syncs")
}

// BenchmarkFleetReplaceReplica measures one full membership turnover on a
// warmed 4-replica fleet: fail the member in slot 1, spawn a replacement,
// and catch it up from a live donor (base-table checkpoint serialize +
// restore, full LoRA state transfer, atomic view/ring rebuild). This is the
// control-plane cost a production fleet pays per crash, so its trajectory
// matters as the serving stack grows.
func BenchmarkFleetReplaceReplica(b *testing.B) {
	srv, gen := benchSyncFleet(b)
	es := srv.(ElasticServer)
	// Warm the fleet so the donor has real adapter state to ship.
	for i := 0; i < 400; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := es.ReplaceReplica(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := srv.Stats()
	if b.N > 0 {
		b.ReportMetric(float64(st.CatchUpBytes)/float64(b.N), "catchupB/op")
	}
}

func mustNewSet(tb testing.TB, base *emt.Group, cfg lora.Config) *lora.Set {
	set, err := lora.NewSet(base, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// BenchmarkLoRATrainStep measures one co-located LoRA training step
// (forward + backward + factor update, dense layers frozen): one sample
// through the frozen-dense dlrm.Trainer the train tick runs.
func BenchmarkLoRATrainStep(b *testing.B) {
	p := benchServingProfile()
	rng := tensor.NewRNG(3)
	model, err := dlrm.NewModel(dlrm.ConfigForProfile(p), rng)
	if err != nil {
		b.Fatal(err)
	}
	base := emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)
	set := mustNewSet(b, base, lora.DefaultConfig(p.TableSize, p.EmbeddingDim))
	gen := NewWorkload(p, 4)
	samples := make([]Sample, 512)
	for i := range samples {
		samples[i] = gen.Next()
	}
	tr := dlrm.Trainer{Model: model, Emb: set, EmbLR: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(samples)
		tr.TrainBatch(samples[k : k+1])
	}
}

// BenchmarkLoRASnapshotPublish measures one replica's share of a sync on warm
// adapters — Snapshot (export the modified rows, clear the supports) and
// Publish (clone each store, install the rows, swap) — with 2 000 modified
// rows in each of 8 tables. allocs/op is the number to watch: it is a small
// constant per table, not a function of the row count.
func BenchmarkLoRASnapshotPublish(b *testing.B) {
	const tables, rows, dim = 8, 2000, 16
	base := emt.NewGroup(tables, 10000, dim, tensor.NewRNG(9))
	cfg := lora.DefaultConfig(10000, dim)
	cfg.AdaptInterval = 1 << 30 // no pruning: the rows stay
	set := mustNewSet(b, base, cfg)
	grad := make([]float64, dim)
	grad[3] = 0.1
	touch := func() { // every row (re-)enters the support
		for t := 0; t < tables; t++ {
			for id := int32(0); id < rows; id++ {
				set.ApplyGrad(t, []int32{id}, grad, 0.01)
			}
		}
	}
	touch()
	state := set.Snapshot()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			touch()
			b.StartTimer()
			set.Snapshot()
		}
	})
	b.Run("publish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set.Publish(state, int64(i))
		}
	})
}

// BenchmarkGradientPCA measures the spectrum kernel behind rank adaptation on
// a gradient-window-sized matrix (256×16): centre, d×d covariance,
// tridiagonal QL eigenvalues.
func BenchmarkGradientPCA(b *testing.B) {
	rng := tensor.NewRNG(5)
	m := tensor.RandomMatrix(rng, 256, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.ComputePCA(m)
	}
}

// BenchmarkRankAdapt measures one Algorithm 1 pass (rank adaptation over a
// full 256×16 gradient window, then pruning) as the train tick pays it:
// AdaptInterval 1 makes every Train end in adapt(). Steady state allocates
// nothing; the rare pass that changes the rank does.
func BenchmarkRankAdapt(b *testing.B) {
	cfg := lora.DefaultConfig(10000, 16)
	cfg.AdaptInterval = 1
	set := mustNewSet(b, emt.NewGroup(1, 10000, cfg.Dim, tensor.NewRNG(5)), cfg)
	grads := tensor.RandomMatrix(tensor.NewRNG(5), 4*cfg.GradWindow, cfg.Dim, 1)
	ids := []int32{1, 77, 4096}
	for i := 0; i < grads.Rows; i++ { // fill the window, let the rank settle
		set.ApplyGrad(0, ids, grads.Row(i), 0.01)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.ApplyGrad(0, ids, grads.Row(i%grads.Rows), 0.01)
	}
}

// BenchmarkP99Window measures the controller's tail-latency read: P99 over a
// full 4096-sample latency window (one scan keeping the 42 largest samples
// in a heap held in the tracker's scratch).
func BenchmarkP99Window(b *testing.B) {
	rng := tensor.NewRNG(6)
	lt := metrics.NewLatencyTracker(4096)
	for i := 0; i < 4096; i++ {
		lt.Observe(rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.P99()
	}
}

// BenchmarkEmbeddingLookup measures multi-hot pooled lookup.
func BenchmarkEmbeddingLookup(b *testing.B) {
	rng := tensor.NewRNG(6)
	tab := emt.NewGroup(1, 10000, 16, rng).Tables[0]
	ids := []int32{1, 77, 4096}
	dst := make([]float64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(ids, dst)
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkAblationRankResize compares shrink (SVD re-projection) and grow
// (zero-pad) resize costs on a populated adapter.
func BenchmarkAblationRankResize(b *testing.B) {
	cfg := lora.DefaultConfig(2000, 16)
	cfg.InitialRank = 8
	grad := make([]float64, 16)
	for i := range grad {
		grad[i] = 0.1 * float64(i)
	}
	// One populated adapter is reused; each iteration cycles the rank so
	// both the SVD-re-projection (shrink) and zero-pad (grow) paths run.
	populate := func() *lora.Adapter {
		set := mustNewSet(b, emt.NewGroup(1, 2000, cfg.Dim, tensor.NewRNG(5)), cfg)
		for id := int32(0); id < 500; id++ {
			set.ApplyGrad(0, []int32{id}, grad, 0.05)
		}
		return set.Adapters[0]
	}
	b.Run("shrink-grow-cycle", func(b *testing.B) {
		a := populate()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				a.Resize(4)
			} else {
				a.Resize(8)
			}
		}
	})
}

// BenchmarkAblationSyncProtocol measures one sparse priority-merge sync
// (Algorithm 3) over 4 replicas: snapshot, merge, price, publish.
func BenchmarkAblationSyncProtocol(b *testing.B) {
	makeReplicas := func() []*lora.Set {
		replicas := make([]*lora.Set, 4)
		for i := range replicas {
			base := emt.NewGroup(2, 2000, 16, tensor.NewRNG(9))
			cfg := lora.DefaultConfig(2000, 16)
			cfg.Seed = uint64(i)
			replicas[i] = mustNewSet(b, base, cfg)
		}
		grad := make([]float64, 16)
		grad[0] = 1
		for r, rep := range replicas {
			for k := 0; k < 50; k++ {
				rep.ApplyGrad(0, []int32{int32(r*50 + k)}, grad, 0.05)
			}
		}
		return replicas
	}
	grad := make([]float64, 16)
	grad[0] = 1
	b.Run("priority-merge", func(b *testing.B) {
		replicas := makeReplicas()
		sg, err := collective.NewSyncGroupWith(collective.GroupConfig{BandwidthBps: simnet.Gbps100, LatencySec: 0.001})
		if err != nil {
			b.Fatal(err)
		}
		states := make([]collective.RankedState, len(replicas))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A little fresh work per cycle, then the sparse sync.
			replicas[i%4].ApplyGrad(0, []int32{int32(i % 2000)}, grad, 0.05)
			for r, rep := range replicas {
				states[r] = collective.RankedState{Rank: r, Tables: rep.Snapshot()}
			}
			merged, _, epoch, err := sg.SyncRanked(simnet.NewClock(), states)
			if err != nil {
				b.Fatal(err)
			}
			for _, rep := range replicas {
				rep.Publish(merged, epoch)
			}
		}
	})
}

// BenchmarkAblationQoSThresholds sweeps Algorithm 2's hysteresis thresholds,
// reporting controller responsiveness under a saw-tooth P99 signal.
func BenchmarkAblationQoSThresholds(b *testing.B) {
	for _, spread := range []struct {
		name      string
		high, low float64
	}{
		{"tight-8/7ms", 0.008, 0.007},
		{"paper-10/6ms", 0.010, 0.006},
		{"wide-15/3ms", 0.015, 0.003},
	} {
		b.Run(spread.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runControllerSweep(b, spread.high, spread.low)
			}
		})
	}
}

func runControllerSweep(b *testing.B, high, low float64) {
	b.Helper()
	clock := simnet.NewClock()
	mcfg := numasim.DefaultConfig()
	machine, err := numasim.NewMachine(mcfg, clock)
	if err != nil {
		b.Fatal(err)
	}
	ctlCfg := numasim.DefaultControllerConfig(mcfg.NumCCDs)
	ctlCfg.THigh = high
	ctlCfg.TLow = low
	ctl, err := numasim.NewController(ctlCfg, machine, clock, 9)
	if err != nil {
		b.Fatal(err)
	}
	p99 := 0.002
	up := true
	for step := 0; step < 200; step++ {
		clock.Advance(1.1)
		ctl.Observe(p99)
		if up {
			p99 += 0.001
			if p99 > 0.018 {
				up = false
			}
		} else {
			p99 -= 0.001
			if p99 < 0.002 {
				up = true
			}
		}
	}
}

// BenchmarkCostModel measures the Fig 14 arithmetic.
func BenchmarkCostModel(b *testing.B) {
	cm := update.DefaultCostModel(trace.Profiles()["bd-tb"])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []update.Kind{update.DeltaUpdate, update.QuickUpdate, update.LiveUpdate} {
			cm.HourlyCost(k, 300)
		}
	}
}

// BenchmarkSyncCollectivePricing prices one ranked sync of a prepared
// 16-member group under the most expensive knob combination (tree topology,
// delta tracking, flate-6 payload compression). This is the per-sync
// overhead the pricing layer adds on top of the merge itself.
func BenchmarkSyncCollectivePricing(b *testing.B) {
	rng := tensor.NewRNG(7)
	base := emt.NewGroup(2, 512, 16, rng)
	cfg := lora.DefaultConfig(512, 16)
	states := make([]collective.RankedState, 16)
	grad := make([]float64, 16)
	for i := range grad {
		grad[i] = 0.05
	}
	for i := range states {
		c := cfg
		c.Seed = uint64(i)
		set := mustNewSet(b, base, c)
		for t := 0; t < 2; t++ {
			set.ApplyGrad(t, []int32{int32(i), int32(i + 16), int32(i + 32)}, grad, 0.05)
		}
		states[i] = collective.RankedState{Rank: i, Tables: set.Snapshot()}
	}
	sg, err := collective.NewSyncGroupWith(collective.GroupConfig{
		BandwidthBps:  simnet.Gbps100,
		LatencySec:    1e-6,
		Topology:      collective.TopologyTree,
		Delta:         true,
		CompressLevel: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	clock := simnet.NewClock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := sg.SyncRanked(clock, states); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayloadCodec round-trips a realistic sync payload through the
// hardened wire codec at flate level 6 — the serialization cost the
// compression knob charges for.
func BenchmarkPayloadCodec(b *testing.B) {
	rng := tensor.NewRNG(7)
	base := emt.NewGroup(2, 512, 16, rng)
	cfg := lora.DefaultConfig(512, 16)
	set := mustNewSet(b, base, cfg)
	grad := make([]float64, 16)
	ids := make([]int32, 64)
	for i := range ids {
		ids[i] = int32(i * 7 % 512)
	}
	for t := 0; t < 2; t++ {
		set.ApplyGrad(t, ids, grad, 0.05)
	}
	tables := set.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := collective.EncodePayload(tables, 6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := collective.DecodePayload(enc); err != nil {
			b.Fatal(err)
		}
	}
}
