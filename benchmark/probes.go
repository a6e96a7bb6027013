package main

import (
	"bytes"
	"runtime"
	"sort"

	"liveupdate/internal/core"
	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/metrics"
	"liveupdate/internal/numasim"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// Kernel probes are direct timed calls into one layer's public functions at
// the shapes the profile and a warmed node produce. They report time per
// operation plus computed operation counts (a roofline numerator); no peak is
// claimed from a shared CPU.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// perOp times reps calls of f and returns nanoseconds per call.
func perOp(reps int, f func()) float64 {
	t0 := nowNs()
	for i := 0; i < reps; i++ {
		f()
	}
	return float64(nowNs()-t0) / float64(reps)
}

// medianOp times each call of f on its own and returns the median, for
// operations with rare expensive outliers (an ApplyGrad that triggers rank
// adaptation).
func medianOp(reps int, f func(i int)) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t0 := nowNs()
		f(i)
		ns[i] = float64(nowNs() - t0)
	}
	sort.Float64s(ns)
	return quantile(ns, 0.5)
}

// probeKernels fills the tensor, dlrm, emt, lora, numasim, metrics and bench
// probes. Its fixture is a node warmed over the head of the workload's own
// sample pool with the trainer on, so adapter rank and hot rows are the ones
// this input produces.
func probeKernels(r *result, pool []trace.Sample, o options) {
	p := criteo()
	reps := o.n(20000)
	warm := o.n(nodeWarm)
	if warm > len(pool) {
		warm = len(pool)
	}
	fix := core.MustNew(core.DefaultOptions(p, sysSeed))
	for _, s := range pool[:warm] {
		if _, err := fix.Serve(s); err != nil {
			r.check("probe fixture", false, "%v", err)
			return
		}
	}
	at := func(i int) trace.Sample { return pool[i%len(pool)] }

	// tensor: the model's widest MLP layer.
	var w *tensor.Matrix
	for _, mlp := range []*dlrm.MLP{fix.Model.Bottom, fix.Model.Top} {
		for _, l := range mlp.Layers {
			if w == nil || l.W.Rows*l.W.Cols > w.Rows*w.Cols {
				w = l.W
			}
		}
	}
	rng := tensor.NewRNG(sysSeed)
	x := tensor.RandomMatrix(rng, 16, w.Cols, 1)
	dst := tensor.NewMatrix(16, w.Rows)
	matvec := perOp(reps, func() { tensor.MatVecInto(dst.Row(0), w, x.Row(0)) })
	r.set("tensor.matvec_ns", matvec)
	r.set("tensor.matvec_gflops", 2*float64(w.Rows*w.Cols)/matvec)
	r.set("tensor.gemm_ns_per_row", perOp(reps/16+1, func() { tensor.MatMulTransInto(dst, x, w) })/16)
	r.note("tensor probes at %dx%d (widest MLP layer): %d flop and %d bytes of weights per matvec",
		w.Rows, w.Cols, 2*w.Rows*w.Cols, 8*w.Rows*w.Cols)

	// tensor: the rank-adaptation kernels at the shapes lora.adapt produces.
	st := fix.Stats()
	grads := tensor.RandomMatrix(rng, fix.Opts.LoRA.GradWindow, p.EmbeddingDim, 1)
	r.set("tensor.pca_ns", perOp(reps/400+1, func() { sink += tensor.ComputePCA(grads).CumulativeImportance()[0] }))
	hot := st.LoRAHotRows/p.NumTables + 1
	delta := tensor.RandomMatrix(rng, hot, p.EmbeddingDim, 1)
	r.set("tensor.tsvd_ns", perOp(reps/400+1, func() {
		left, _ := tensor.TruncatedSVD(delta, st.LoRARank)
		sink += left.Data[0]
	}))
	r.note("tensor.pca on %dx%d (GradWindow x dim), tensor.tsvd on %dx%d to rank %d (hot rows per table of the warmed fixture)",
		grads.Rows, grads.Cols, delta.Rows, delta.Cols, st.LoRARank)

	// dlrm: forward single and batched through the warmed adapters; one
	// training step and AUC evaluation on clones so the fixture stays put.
	r.set("dlrm.predict_ns", perOp(reps, func() {
		s := at(0)
		sink += fix.Model.Predict(fix.LoRA, s.Dense, s.Sparse)
	}))
	const b = 16
	dense := make([][]float64, b)
	sparse := make([][][]int32, b)
	out := make([]float64, b)
	for i := range dense {
		dense[i], sparse[i] = at(i).Dense, at(i).Sparse
	}
	r.set("dlrm.predict_batch_ns_per_row", perOp(reps/b+1, func() { fix.Model.PredictBatch(fix.LoRA, dense, sparse, out, nil) })/b)
	model := fix.Model.Clone()
	emb := &dlrm.BaseEmbeddings{Group: fix.Base.Clone()}
	var cache dlrm.ForwardCache
	i := 0
	r.set("dlrm.train_step_ns", perOp(reps/4+1, func() {
		s := at(i)
		i++
		sink += model.TrainStepWith(emb, s.Dense, s.Sparse, s.Label, 0.05, &cache)
	}))
	evalN := 600
	if evalN > len(pool) {
		evalN = len(pool)
	}
	r.set("dlrm.eval_auc_ns_per_row", perOp(reps/2000+1, func() { sink += dlrm.EvaluateAUC(fix.Model, fix.LoRA, pool[:evalN]) })/float64(evalN))

	// emt: pooled lookup across all tables; checkpoint write + read.
	pooled := make([]float64, p.NumTables*p.EmbeddingDim)
	i = 0
	r.set("emt.lookup_ns", perOp(reps, func() { fix.Base.Lookup(at(i).Sparse, pooled); i++ }))
	var buf bytes.Buffer
	t0 := nowNs()
	err := fix.Base.WriteCheckpoint(&buf)
	size := buf.Len()
	if err == nil {
		_, err = emt.ReadCheckpoint(&buf)
	}
	r.check("emt checkpoint round trip", err == nil, "%v", err)
	r.set("emt.checkpoint_mb_s", 2*float64(size)/1e6/(float64(nowNs()-t0)/1e9))

	// lora: read path, write path, snapshot and publish on warm adapters.
	row := make([]float64, p.EmbeddingDim)
	i = 0
	r.set("lora.lookup_ns", perOp(reps, func() { fix.LoRA.Lookup(0, at(i).Sparse[0], row); i++ }))
	grad := make([]float64, p.EmbeddingDim)
	for k := range grad {
		grad[k] = rng.NormFloat64() * 1e-3
	}
	fix.Lock()
	r.set("lora.train_ns", medianOp(reps/4+1, func(i int) { fix.LoRA.ApplyGrad(0, at(i).Sparse[0], grad, 1e-4) }))
	fix.Unlock()
	r.set("lora.snapshot_ns", perOp(1, func() { sink += float64(len(fix.SnapshotLoRA())) }))
	fix.Lock()
	state := fix.LoRA.ExportFull()
	fix.Unlock()
	r.set("lora.publish_ns", perOp(1, func() { fix.PublishLoRA(state, 1) }))

	// numasim: the memory model over the replayed id stream, on its own
	// machine so no workload statistic moves.
	machine := numasim.MustNewMachine(numasim.DefaultConfig(), simnet.NewClock())
	i = 0
	accesses := 0
	total := perOp(reps, func() {
		for t, ids := range at(i).Sparse {
			for _, id := range ids {
				sink += machine.Access(numasim.Inference, numasim.KindCached, int32(t), id)
				accesses++
			}
		}
		i++
	})
	r.set("numasim.access_ns", total*float64(reps)/float64(accesses))

	// metrics: the controller's P99 read on a full window.
	lt := metrics.NewLatencyTracker(fix.Opts.Node.LatencyWindow)
	for k := 0; k < fix.Opts.Node.LatencyWindow; k++ {
		lt.Observe(rng.Float64())
	}
	r.set("metrics.p99_ns", perOp(reps/100+1, func() { sink += lt.P99() }))

	r.set("bench.timer_ns", timerPairNs())
	r.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}
