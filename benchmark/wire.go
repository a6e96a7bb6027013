package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"liveupdate/internal/cluster"
	"liveupdate/internal/core"
	"liveupdate/internal/metrics"
	"liveupdate/internal/netclient"
	"liveupdate/internal/netserve"
	"liveupdate/internal/trace"
)

// Reference counts of wire_batch.
const (
	wirePiece     = 1000                         // ServeShardBatch calls per round, both lanes together: a piece, about 0.4 s
	wireMinPieces = 60000 / countDiv / wirePiece // rounds a run measures at least
	wirePool      = 131072                       // samples, i.e. 32 768 fixed batches, replayed
	wireBatch     = 4
	wireLanes     = 2 // client goroutines == connections == nproc

	// wireTail is p95: a piece's 1000 calls leave p99 the bare ten calls
	// beyond it, and it repeats half as well.
	wireTail = 0.95
)

// Span names of the wire shims.
const (
	spWireCall = iota
	spWireInner
)

var wireSpanNames = []string{"netclient.serve_shard_batch", "cluster.serve_batch"}

// innerShim is the boundary shim handed to netserve.New in place of the
// fleet: it times the cluster.ServeBatch call inside each wire request.
// Traced, it tags the span with the batch's schedule index, recovered from
// the bits of the first dense feature (the wire carries float64s exactly).
type innerShim struct {
	c *cluster.Cluster

	mu     sync.Mutex
	callNs []int64

	// Traced only.
	ln      *lane
	batchOf map[uint64]int
	innerNs map[int]int64 // batch index -> ServeBatch ns, most recent call
}

func (s *innerShim) Serve(x trace.Sample) (core.Response, error) { return s.c.Serve(x) }
func (s *innerShim) Stats() core.Stats                           { return s.c.Stats() }
func (s *innerShim) Profile() trace.Profile                      { return s.c.Profile() }

func (s *innerShim) ServeBatch(samples []trace.Sample, resps []core.Response) error {
	t0 := nowNs()
	err := s.c.ServeBatch(samples, resps)
	t1 := nowNs()
	s.mu.Lock()
	s.callNs = append(s.callNs, t1-t0)
	b, traced := -1, false
	if s.ln != nil && len(samples) > 0 {
		if b, traced = s.batchOf[math.Float64bits(samples[0].Dense[0])]; traced {
			s.innerNs[b] = t1 - t0
		}
	}
	s.mu.Unlock()
	if traced {
		s.ln.add(spWireInner, b, t0, t1)
	}
	return err
}

// wireEnv is one set-up wire_batch stack: fleet, gateway on a loopback
// listener, and a dialled two-lane client.
type wireEnv struct {
	pool   []trace.Sample
	genNs  float64
	c      *cluster.Cluster
	inner  *innerShim
	gw     *netserve.Gateway
	client *netclient.Client
}

func setupWire(o options, tr *tracer) (*wireEnv, error) {
	env := &wireEnv{}
	n := o.n(wirePool) / wireBatch * wireBatch
	if n < wireBatch*wireLanes {
		n = wireBatch * wireLanes
	}
	var err error
	if env.pool, env.genNs, err = genPool(criteo(), o.Seed, n); err != nil {
		return nil, err
	}
	if env.c, err = newFleet(); err != nil {
		return nil, err
	}
	env.inner = &innerShim{c: env.c, callNs: make([]int64, 0, 1<<16)}
	if tr != nil {
		env.inner.ln = tr.lane("gateway handlers")
		env.inner.batchOf = make(map[uint64]int, n/wireBatch)
		env.inner.innerNs = make(map[int]int64, n/wireBatch)
		for b := 0; b < n/wireBatch; b++ {
			env.inner.batchOf[math.Float64bits(env.pool[b*wireBatch].Dense[0])] = b
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if env.gw, err = netserve.New(env.inner, ln, netserve.Config{}); err != nil {
		ln.Close()
		return nil, err
	}
	if env.client, err = netclient.Dial(env.gw.Addr().String(), netclient.Config{Conns: wireLanes, Seed: sysSeed}); err != nil {
		env.gw.Close()
		return nil, err
	}
	return env, nil
}

// close drains the gateway and drops the client's connections.
func (env *wireEnv) close() error {
	env.client.Close()
	return env.gw.Close()
}

// wireRun is what one pass over wire_batch measured.
type wireRun struct {
	Calls, FailedCalls int64
	Meter              meter
	Timer              pieceTimer // one piece per round
	SelfNs             []int64    // traced: client span minus its inner ServeBatch span
	AUC                float64
	AtMin              core.Stats // fleet snapshot after the minimum rounds
	RSSMB              float64    // resident-set high-water mark after the minimum rounds
}

// driveWire runs rounds of closed-loop calls, a piece each: in a round every
// lane's goroutine issues its share of fixed 4-sample batches back to back,
// and the round ends when both are done. Rounds follow each other until
// wireMinPieces were measured and budget is used up (total == 0) or until
// exactly total calls were made.
func driveWire(env *wireEnv, o options, tr *tracer, total int64) wireRun {
	run := wireRun{Timer: pieceTimer{Lanes: wireLanes}}
	batches := len(env.pool) / wireBatch
	type laneState struct {
		lat, self []int64
		probs     []float64
		labels    []int
		failed    int64
		resps     []core.Response
		ln        *lane
	}
	lanes := make([]*laneState, wireLanes)
	for g := range lanes {
		lanes[g] = &laneState{resps: make([]core.Response, wireBatch)}
		if tr != nil {
			lanes[g].ln = tr.lane(fmt.Sprintf("client lane %d", g))
		}
	}
	// round issues calls [from, to) of the schedule; call k goes to lane
	// k % wireLanes and carries batch k % batches.
	round := func(from, to int64, keepAUC bool) {
		var wg sync.WaitGroup
		for g := range lanes {
			wg.Add(1)
			go func(g int, st *laneState) {
				defer wg.Done()
				st.lat = st.lat[:0]
				for k := from + (int64(g)-from%wireLanes+wireLanes)%wireLanes; k < to; k += wireLanes {
					b := int(k % int64(batches))
					samples := env.pool[b*wireBatch : (b+1)*wireBatch]
					if st.ln != nil {
						st.ln.begin(spWireCall, b)
					}
					t0 := time.Now()
					err := env.client.ServeShardBatch(g, samples, st.resps)
					dur := int64(time.Since(t0))
					if st.ln != nil {
						st.ln.end()
						env.inner.mu.Lock()
						inner, ok := env.inner.innerNs[b]
						env.inner.mu.Unlock()
						if ok && err == nil {
							st.self = append(st.self, dur-inner)
						}
					}
					st.lat = append(st.lat, dur)
					if err != nil {
						st.failed++
						continue
					}
					if keepAUC {
						for i := range samples {
							st.probs = append(st.probs, st.resps[i].Prob)
							st.labels = append(st.labels, samples[i].Label)
						}
					}
				}
			}(g, lanes[g])
		}
		wg.Wait()
	}
	piece := int64(o.n(wirePiece))
	minCalls := wireMinPieces * piece
	budget := time.Duration(o.Seconds * float64(time.Second))
	var lat []int64
	settleHeap()
	run.Meter.start()
	start := time.Now()
	for total > 0 && run.Calls < total || total == 0 && (run.Calls < minCalls || time.Since(start) < budget) {
		to := run.Calls + piece
		if total > 0 && to > total {
			to = total
		}
		run.Timer.start()
		round(run.Calls, to, run.Calls < minCalls)
		lat = lat[:0]
		for _, st := range lanes {
			lat = append(lat, st.lat...)
		}
		run.Timer.stop(int(to-run.Calls)*wireBatch, lat, wireTail)
		if run.Calls = to; run.Calls == minCalls {
			run.RSSMB = peakRSSMB()
			run.AtMin = env.c.Stats()
		}
	}
	run.Meter.stop()
	var probs []float64
	var labels []int
	for _, st := range lanes {
		run.SelfNs = append(run.SelfNs, st.self...)
		run.FailedCalls += st.failed
		probs = append(probs, st.probs...)
		labels = append(labels, st.labels...)
	}
	run.AUC = metrics.AUC(probs, labels)
	return run
}

func runWireBatch(o options) (*result, error) {
	r := newResult("wire_batch", o)

	build := func() (*wireEnv, error) { return setupWire(o, nil) }
	env, own, err := timed(build)
	if err != nil {
		return nil, err
	}

	run := driveWire(env, o, nil, 0)
	closeErr := env.close()
	setups, err := moreSetups(o, own, build, func(env *wireEnv) { env.close() })
	if err != nil {
		return nil, err
	}
	samples := float64(run.Calls * wireBatch)
	r.Attempted, r.Failed = run.Calls*wireBatch, run.FailedCalls*wireBatch
	r.endToEnd(setups, run.Timer.Pieces, float64(run.Meter.Mallocs)/samples, run.RSSMB, run.AUC)
	r.note("%d ServeShardBatch calls of %d samples in %.2fs (rounds of %d calls, minimum %d rounds), %d goroutines on %d connections, closed loop; a call is one wire round trip; auc and virtual statistics after the minimum rounds",
		run.Calls, wireBatch, run.Meter.Wall.Seconds(), o.n(wirePiece), wireMinPieces, wireLanes, wireLanes)
	checkWire(r, env, run, closeErr)
	if !o.Trace {
		r.finish()
		return r, nil
	}

	// Traced pass on a fresh stack, same call count.
	tr := newTracer(wireSpanNames...)
	tenv, err := setupWire(o, tr)
	if err != nil {
		return nil, err
	}
	traced := driveWire(tenv, o, tr, run.Calls)
	probeFleet(r, tenv.c, tenv.pool, o)
	if err := tenv.close(); err != nil {
		return nil, err
	}
	r.check("traced pass failed calls", traced.FailedCalls == 0, "%d", traced.FailedCalls)

	inner := summarize(env.inner.callNs, 0.99)
	r.set("cluster.serve_call_us_p50", inner.P50)
	r.set("cluster.serve_call_us_p99", inner.Tail)
	self := summarize(traced.SelfNs, 0.99)
	r.set("netserve.wire_self_us_p50", self.P50)
	r.note("netserve.wire_self_us_p50 over %d calls matched to their inner ServeBatch span by request id", self.N)
	for _, ep := range env.gw.WireStats() {
		if ep.Endpoint == "/serve.bin" {
			r.set("netserve.accepted", float64(ep.Accepted))
			r.set("netserve.completed", float64(ep.Completed))
			r.set("netserve.shed", float64(ep.Shed))
		}
	}
	r.set("netclient.retries", float64(env.client.TransportRetries()))
	r.set("netclient.shed429", float64(env.client.Shed429()))
	r.set("netclient.gaveup", float64(env.client.GaveUp()))
	st := run.AtMin
	r.set("cluster.syncs", float64(st.Syncs))
	r.set("collective.sync_wire_mb", float64(st.SyncWireBytes)/1e6)
	r.set("collective.sync_compute_s", st.SyncComputeSeconds)
	r.set("collective.sync_publish_s", st.SyncPublishSeconds)
	r.set("lora.rank_final", float64(st.LoRARank))
	r.set("lora.hot_rows_final", float64(st.LoRAHotRows))
	r.set("lora.overhead_pct", st.MemoryOverhead*100)
	r.set("numasim.inf_hit_ratio", st.InferenceHitRatio)
	r.set("core.train_tick_count", float64(st.TrainSteps))
	r.set("trace.gen_ns", env.genNs)
	r.set("bench.virt_p99_ms", st.P99*1e3)
	r.set("bench.fail_ratio", float64(r.Failed)/float64(r.Attempted))
	r.set("bench.trace_overhead_pct", (1-run.Meter.Wall.Seconds()/traced.Meter.Wall.Seconds())*100)
	probeCodec(r, env.pool, o)
	probeKernels(r, env.pool, o)
	if err := writeTrace(tr, r.Workload, o); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

func checkWire(r *result, env *wireEnv, run wireRun, closeErr error) {
	r.check("gateway drained", closeErr == nil, "%v", closeErr)
	want := uint64(run.Calls * wireBatch)
	r.check("served == requested", run.FailedCalls == 0 && env.c.Stats().Served == want,
		"fleet served %d of %d, %d failed calls", env.c.Stats().Served, want, run.FailedCalls)
	for _, ep := range env.gw.WireStats() {
		if ep.Endpoint == "/serve.bin" {
			r.check("wire ledger accepted == completed", ep.Accepted == ep.Completed && ep.Accepted >= uint64(run.Calls),
				"accepted %d, completed %d, shed %d, calls %d", ep.Accepted, ep.Completed, ep.Shed, run.Calls)
		}
	}
	r.check("netclient.gaveup == 0", env.client.GaveUp() == 0, "%d", env.client.GaveUp())
	r.checkAUC(run.AUC)
}

// probeCodec times the binary wire codec at the workload's batch size.
func probeCodec(r *result, pool []trace.Sample, o options) {
	reps := o.n(20000)
	batch := pool[:wireBatch]
	buf := make([]byte, 0, 1024)
	r.set("netserve.encode_batch_ns", perOp(reps, func() { buf = netserve.AppendBatch(buf[:0], batch) }))
	r.set("netserve.decode_batch_ns", perOp(reps, func() {
		if _, err := netserve.DecodeBatch(buf); err != nil {
			r.check("netserve.DecodeBatch", false, "%v", err)
		}
	}))
	resps := make([]core.Response, wireBatch)
	for i := range resps {
		resps[i] = core.Response{Prob: 0.25, Latency: 0.005, Replica: i}
	}
	rbuf := make([]byte, 0, 256)
	r.set("netserve.encode_resp_ns", perOp(reps, func() { rbuf = netserve.AppendResponses(rbuf[:0], resps) }))
	r.set("netserve.decode_resp_ns", perOp(reps, func() {
		if _, err := netserve.DecodeResponses(rbuf); err != nil {
			r.check("netserve.DecodeResponses", false, "%v", err)
		}
	}))
}
