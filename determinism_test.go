package liveupdate

// The determinism matrix: every virtual-time statistic is a function of the
// seed alone, whatever the worker count, lane batching, sync topology, delta
// sync, compression, quantization, telemetry, transport (in-process, or one
// loopback connection, clean or under one fault class), chaos script or sync
// mode (the periodic pipeline, or SyncNow at marks). Cells are drawn from a
// constant seed over those axes. fingerprint splits a drive's statistics
// into classes: serving, compared in every cell; the sync bill (catch-up
// included) and the adapter census, which the periodic pipeline's snapshot
// timing moves, compared in mark cells; and per-worker fields. A cell is
// named by its index and settings; go test -run
// 'TestDeterminismMatrix/<name>' . replays it with its references.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"liveupdate/internal/faultnet"
	"liveupdate/internal/metrics"
	"liveupdate/internal/netserve"
)

// The fixture: a 3-replica hash-routed fleet on the small profile, 1 000
// requests of workload seed 7, a sync (a pipeline epoch or a SyncNow mark)
// every 500 ms of fleet clock, and a script that kills a replica, replaces
// it and scales the fleet to four.
const (
	matrixRequests = 1000
	matrixEvery    = 500 * time.Millisecond
	matrixCells    = 28 // drawn cells; -short and -race run a covering subset
)

var matrixChaos = ChaosSchedule{
	{At: 300 * time.Millisecond, Action: ChaosKill, Arg: 1},
	{At: 600 * time.Millisecond, Action: ChaosReplace, Arg: 1},
	{At: 900 * time.Millisecond, Action: ChaosScale, Arg: 4},
}

// matrixFaults are the wire cells' fault plans, the per-read probability
// left to faultPlan; "clean" is the serialization path alone.
var matrixFaults = map[string]string{
	"clean":     "",
	"latency":   "latency(p=%g,min=0s,max=1ms)",
	"reset":     "reset(p=%g)",
	"blackhole": "blackhole(p=%g,stall=2ms)",
	"truncate":  "truncate(p=%g)",
	"corrupt":   "corrupt(p=%g,bits=3)",
}

// cell is one drive configuration. workers 0 is a plain Serve loop (a
// reference only); fault "" is in-process, anything else one loopback
// connection under that matrixFaults plan.
type cell struct {
	workers, batch int
	topology       SyncTopology
	delta          bool
	compress       int
	quant          Quantization
	telemetry      bool
	fault          string
	chaos, marks   bool
}

func (c cell) name(i int) string {
	pick := func(on bool, yes, no string) string {
		if on {
			return yes
		}
		return no
	}
	return fmt.Sprintf("%02d_w%d_b%d_%s_%s_z%d_%s_%s_%s_%s_%s", i, c.workers, c.batch,
		c.topology, pick(c.delta, "delta", "full"), c.compress, c.quant,
		pick(c.telemetry, "tel", "notel"), pick(c.fault != "", "wire-"+c.fault, "inproc"),
		pick(c.chaos, "chaos", "calm"), pick(c.marks, "marks", "periodic"))
}

// faultPlan fires about a dozen times whatever the batch size: a drive sends
// matrixRequests/batch wire requests.
func (c cell) faultPlan() string {
	if matrixFaults[c.fault] == "" {
		return ""
	}
	return fmt.Sprintf(matrixFaults[c.fault], 12*float64(c.batch)/matrixRequests)
}

// refOf is the reference c is compared with on class: a Serve loop (one
// driven worker where chaos needs the driver), flat, full sync, no
// compression, float64, no telemetry, in-process, in c's (chaos, sync mode)
// class — with c's sync pricing for the bill, and c's workers and kind of
// transport for the per-worker fields.
func (c cell) refOf(class string) cell {
	r := cell{batch: 1, topology: SyncTopologyFlat, quant: QuantizationNone, chaos: c.chaos, marks: c.marks}
	if c.chaos {
		r.workers = 1
	}
	switch class {
	case "bill":
		r.topology, r.delta, r.compress = c.topology, c.delta, c.compress
	case "per-worker":
		r.workers = c.workers
		if c.fault != "" {
			r.fault = "clean"
		}
	}
	return r
}

// drawCells draws n cells from a constant seed. Each axis walks its values in
// shuffled rounds, so each appears within its first round; one cell in four
// crosses the wire, without chaos (a remote server is not elastic).
func drawCells(n int) []cell {
	rng := rand.New(rand.NewPCG(42, 0x5eed))
	axis := func(k int) func() int {
		var round []int
		return func() int {
			if len(round) == 0 {
				round = rng.Perm(k)
			}
			v := round[0]
			round = round[1:]
			return v
		}
	}
	workers, batches, topologies, quants := []int{1, 3, 8}, []int{1, 4, 16}, SyncTopologies(), Quantizations()
	faults := []string{"clean", "latency", "reset", "blackhole", "truncate", "corrupt"}
	nw, nb, nt, nq, nf := axis(3), axis(3), axis(3), axis(3), axis(len(faults))
	delta, compress, tel, wire, chaos, marks := axis(2), axis(2), axis(2), axis(4), axis(2), axis(2)
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = cell{
			workers: workers[nw()], batch: batches[nb()], topology: topologies[nt()],
			delta: delta() == 1, compress: 3 * compress(), quant: quants[nq()],
			telemetry: tel() == 1, chaos: chaos() == 1, marks: marks() == 1,
		}
		if wire() == 3 {
			cells[i].fault, cells[i].chaos = faults[nf()], false
		}
	}
	return cells
}

// coveringSubset returns, in order, the indices of the cells that first show
// an axis value or a (chaos, sync mode) class.
func coveringSubset(cells []cell) []int {
	seen := map[string]bool{}
	var keep []int
	for i, c := range cells {
		fresh := false
		for axis, v := range []any{c.workers, c.batch, c.topology, c.delta, c.compress, c.quant,
			c.telemetry, c.fault, c.chaos, c.marks, [2]bool{c.chaos, c.marks}} {
			key := fmt.Sprint(axis, v)
			fresh = fresh || !seen[key]
			seen[key] = true
		}
		if fresh {
			keep = append(keep, i)
		}
	}
	return keep
}

// fingerprint maps each comparison class to its fields, by path, printed.
type fingerprint map[string]map[string]string

// fingerprintOf splits a drive's report into the classes. The topology's
// name and the wire ledger are not statistics of the run.
func fingerprintOf(rep DriveReport) fingerprint {
	f := fingerprint{"serving": {}, "bill": {}, "census": {}, "per-worker": {}}
	add := func(path string, st Stats) {
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			switch name := v.Type().Field(i).Name; {
			case name == "Replicas" || name == "Wire" || name == "SyncTopology":
			case name == "LoRAHotRows" || name == "MemoryOverhead":
				f["census"][path+name] = fmt.Sprint(v.Field(i))
			case strings.HasPrefix(name, "CatchUp") || strings.HasPrefix(name, "Sync") && name != "Syncs":
				f["bill"][path+name] = fmt.Sprint(v.Field(i))
			default:
				f["serving"][path+name] = fmt.Sprint(v.Field(i))
			}
		}
	}
	add("", rep.Final)
	for i, rs := range rep.Final.Replicas {
		add(fmt.Sprintf("Replicas[%d].", i), rs)
	}
	f["serving"]["Chaos"] = fmt.Sprintf("%+v, %d skipped", rep.Chaos, rep.ChaosSkipped)
	for i, w := range rep.PerWorker {
		f["per-worker"][fmt.Sprint(i)] = fmt.Sprint(w.Worker, w.Shards, w.Served, w.MeanLatency, w.P99Latency)
	}
	return f
}

// expectSame fails t with every field of class where got differs from want.
func expectSame(t *testing.T, class string, want, got fingerprint) {
	t.Helper()
	var diffs []string
	for path, w := range want[class] {
		if g, ok := got[class][path]; g != w || !ok {
			diffs = append(diffs, fmt.Sprintf("%s: got %q, reference %q", path, g, w))
		}
	}
	if len(got[class]) != len(want[class]) {
		diffs = append(diffs, fmt.Sprintf("%d fields, reference %d", len(got[class]), len(want[class])))
	}
	if len(diffs) > 0 {
		slices.Sort(diffs)
		t.Errorf("%s differs from its reference:\n  %s", class, strings.Join(diffs, "\n  "))
	}
}

type outcome struct {
	fp fingerprint
	st Stats
}

// matrix memoises the references and the marks.
type matrix struct {
	profile Profile
	refs    map[cell]outcome
	marks   []int // requests served before each SyncNow
}

// ref returns reference r's outcome, running it on first use.
func (m *matrix) ref(t *testing.T, r cell) outcome {
	t.Helper()
	if o, ok := m.refs[r]; ok {
		return o
	}
	o := m.check(t, r)
	m.refs[r] = o
	return o
}

// drive is one run: the report folded over its segments (PerWorker holds
// every segment's rows), the fleet and, in a wire cell, its transport.
type drive struct {
	rep   DriveReport
	fleet *Cluster
	wire  *loopback
}

// run drives c once. The calm mark reference, a Serve loop, calls SyncNow at
// each matrixEvery mark of the fleet clock it crosses and records where;
// every other mark cell drives the trace in segments that end there, and
// calls SyncNow between them.
func (m *matrix) run(t *testing.T, c cell) drive {
	t.Helper()
	opts := []Option{
		WithProfile(m.profile), WithSeed(42), WithReplicas(3), WithRouter(HashRouter),
		WithSyncTopology(c.topology), WithDeltaSync(c.delta), WithCompression(c.compress),
		WithQuantization(c.quant), WithSyncEvery(matrixEvery),
		WithSystemOptions(func(o *Options) {
			o.TrainInterval = 4
			o.LoRA.PruneThresh = 0 // keep post-churn consistency structural
		}),
	}
	if c.marks {
		opts = append(opts, WithSyncEvery(0))
	}
	if c.telemetry {
		opts = append(opts, WithTelemetry(TelemetryConfig{SampleEvery: 1}))
	}
	srv, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	d := drive{fleet: srv.(*Cluster)}
	syncNow := func() {
		if _, err := d.fleet.SyncNow(); err != nil {
			t.Fatalf("SyncNow: %v", err)
		}
	}
	gen := NewWorkload(m.profile, 7)
	if c.workers == 0 {
		var marks []int
		for i := 0; i < matrixRequests; i++ {
			if _, err := d.fleet.Serve(gen.Next()); err != nil {
				t.Fatal(err)
			}
			for c.marks && len(marks) < int(math.Floor(d.fleet.VirtualNow()/matrixEvery.Seconds())) {
				syncNow()
				marks = append(marks, i+1)
			}
		}
		if c.marks {
			m.marks = marks
		}
		d.rep = DriveReport{Served: matrixRequests, BatchSize: 1, Batches: matrixRequests}
	} else {
		var target Server = d.fleet
		if c.fault != "" {
			d.wire = dialLoopback(t, d.fleet, c.faultPlan())
			target = d.wire.remote
		}
		var bounds []int
		if c.marks {
			m.ref(t, cell{marks: true}.refOf("serving"))
			bounds = m.marks
		}
		var schedule ChaosSchedule
		if c.chaos {
			schedule = matrixChaos
		}
		start := 0
		for i, end := range append(bounds[:len(bounds):len(bounds)], matrixRequests) {
			if end > start {
				rep, err := Drive(target, gen, DriveConfig{
					Requests: end - start, Workers: c.workers, Seed: 1, BatchSize: c.batch,
					Chaos: schedule[len(d.rep.Chaos):],
				})
				if err != nil {
					t.Fatalf("drive of requests [%d, %d): %v", start, end, err)
				}
				if st := rep.Final; st.SyncSeconds != st.SyncComputeSeconds+st.SyncPublishSeconds+st.SyncCompressSeconds {
					t.Errorf("requests [%d, %d): stall %v != compute %v + publish %v + compression %v", start, end,
						st.SyncSeconds, st.SyncComputeSeconds, st.SyncPublishSeconds, st.SyncCompressSeconds)
				}
				for _, ev := range rep.Chaos {
					ev.Request += start
					d.rep.Chaos = append(d.rep.Chaos, ev)
				}
				d.rep.Served, d.rep.Batches = d.rep.Served+rep.Served, d.rep.Batches+rep.Batches
				d.rep.BatchSize, d.rep.ChaosSkipped, d.rep.Stages = rep.BatchSize, rep.ChaosSkipped, rep.Stages
				d.rep.PerWorker = append(d.rep.PerWorker, rep.PerWorker...)
				start = end
			}
			if i < len(bounds) {
				syncNow()
			}
		}
	}
	// The final snapshot is the fleet's own, taken as Drive takes it: a wire
	// drive's holds what GET /stats returned, which a faulted connection may
	// have lost (a remote Stats then reads zero).
	d.rep.Final = d.fleet.Stats()
	return d
}

// loopback is a wire cell's transport: a gateway, on a loopback listener
// under the cell's fault plan, and a one-connection client.
type loopback struct {
	gw      *Gateway
	faulted *faultnet.Listener
	remote  *RemoteServer
}

func dialLoopback(t *testing.T, fleet *Cluster, plan string) *loopback {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, served := &loopback{}, net.Listener(ln)
	if plan != "" {
		p, err := ParseFaultPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = 7 ^ 0xfa17
		w.faulted = faultnet.WrapListener(ln, p)
		served = w.faulted
	}
	// Built around the fleet, not by New(WithListener), so that mark cells
	// can still call SyncNow on it.
	if w.gw, err = netserve.New(fleet, served, AdmissionConfig{Telemetry: ServerTelemetry(fleet)}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.gw.Close() })
	// Every injected delay stays far below the per-attempt deadline, so no
	// request is abandoned while the server still serves it: one lane with
	// retries is a closed loop that keeps arrival order.
	if w.remote, err = Dial(ln.Addr().String(), DialConfig{
		Conns: 1, Timeout: 2 * time.Second, Retries: 512,
		BackoffBase: time.Millisecond, MaxRetryWait: 10 * time.Millisecond, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// check runs c and asserts what holds of the cell alone: the drive is whole,
// the sync ledger balances, and its surfaces (telemetry, membership after
// chaos, the wire ledger) report what the run did.
func (m *matrix) check(t *testing.T, c cell) outcome {
	t.Helper()
	d := m.run(t, c)
	rep, st := d.rep, d.rep.Final
	o := outcome{fingerprintOf(rep), st}
	var replicas uint64 // served by the live members, so all of them without churn
	for _, rs := range st.Replicas {
		replicas += rs.Served
	}
	if rep.Served != matrixRequests || st.Served != matrixRequests || !c.chaos && replicas != st.Served ||
		st.Syncs == 0 || st.SyncBytes == 0 {
		t.Fatalf("served %d (fleet %d, replicas %d) of %d; %d syncs of %d B",
			rep.Served, st.Served, replicas, matrixRequests, st.Syncs, st.SyncBytes)
	}
	if rep.BatchSize != c.batch || rep.Batches > rep.Served || (c.batch == 1 && rep.Batches != rep.Served) {
		t.Errorf("batch size %d issued %d serve calls for %d requests", rep.BatchSize, rep.Batches, rep.Served)
	}
	if st.SyncSeconds != st.SyncComputeSeconds+st.SyncPublishSeconds+st.SyncCompressSeconds ||
		st.SyncComputeSeconds <= 0 || st.SyncPublishSeconds <= 0 || (c.compress > 0) != (st.SyncCompressSeconds > 0) {
		t.Errorf("sync seconds %v: compute %v + publish %v + compression %v (level %d)",
			st.SyncSeconds, st.SyncComputeSeconds, st.SyncPublishSeconds, st.SyncCompressSeconds, c.compress)
	}
	checkTelemetry(t, c, d)
	if c.chaos {
		if len(rep.Chaos) != len(matrixChaos) || rep.ChaosSkipped != 0 || st.Members != 4 || st.Fails != 1 ||
			st.Joins != 2 || st.CatchUpBytes == 0 || st.CatchUpSeconds <= 0 {
			t.Fatalf("chaos applied %d events (skipped %d): members %d fails %d joins %d, catch-up %d B %vs",
				len(rep.Chaos), rep.ChaosSkipped, st.Members, st.Fails, st.Joins, st.CatchUpBytes, st.CatchUpSeconds)
		}
		if r := d.fleet.Replica(1); r == nil || r.Stats().Served == 0 {
			t.Error("the replacement in slot 1 served nothing")
		}
		if _, err := d.fleet.SyncNow(); err != nil || !d.fleet.ReplicasConsistent(50) {
			t.Errorf("fleet inconsistent after churn and a merge (%v)", err)
		}
	}
	if d.wire != nil {
		gaveUp := d.wire.remote.GaveUp()
		d.wire.remote.Close()
		if err := d.wire.gw.Close(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		var accepted uint64
		for _, ep := range d.wire.gw.WireStats() {
			accepted += ep.Accepted
			if ep.Accepted != ep.Completed || ep.Endpoint == "/serve" && ep.Accepted != 0 {
				t.Errorf("after drain %s accepted %d, completed %d", ep.Endpoint, ep.Accepted, ep.Completed)
			}
		}
		if accepted+gaveUp != rep.Batches || gaveUp != 0 {
			t.Errorf("wire ledger: accepted %d + gave up %d, sent %d", accepted, gaveUp, rep.Batches)
		}
		if d.wire.faulted != nil && d.wire.faulted.FaultsTotal() == 0 {
			t.Errorf("fault plan %q never fired", c.faultPlan())
		}
	}
	return o
}

// checkTelemetry holds the side-band surface to what the run did: a server
// built without WithTelemetry carries none; with it, every serving stage
// recorded spans, an in-process drive reports them, and /metrics counts the
// run.
func checkTelemetry(t *testing.T, c cell, d drive) {
	t.Helper()
	tel := ServerTelemetry(d.fleet)
	if !c.telemetry || tel == nil || tel.Tracer() == nil {
		if c.telemetry || tel != nil {
			t.Errorf("telemetry %v carries %v", c.telemetry, tel)
		}
		return
	}
	reported := map[string]bool{}
	for _, s := range d.rep.Stages {
		reported[s.Stage] = s.Count > 0 && s.TotalNs >= 0 && s.MeanNs >= 0
	}
	totals := tel.Tracer().StageTotals()
	for _, s := range []metrics.Stage{metrics.StageRoute, metrics.StageForward, metrics.StageCommit, metrics.StageTrainTick, metrics.StageSyncPublish} {
		if totals[s].Count == 0 || c.fault == "" && s != metrics.StageSyncPublish && !reported[s.String()] {
			t.Errorf("stage %q: %d spans, drive breakdown %+v", s, totals[s].Count, d.rep.Stages)
		}
	}
	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE liveupdate_serve_requests_total counter\n",
		fmt.Sprintf("\nliveupdate_serve_requests_total %d\n", matrixRequests), "\nliveupdate_sync_epochs_total ",
		fmt.Sprintf("\nliveupdate_fleet_members %d\n", d.rep.Final.Members)} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestDeterminismMatrix runs the drawn cells (under -short or -race, the
// covering subset) against their references. The pipeline and barrier
// references must also agree on serving: the pipeline changes when merged
// values land, never how time accrues.
func TestDeterminismMatrix(t *testing.T) {
	m := &matrix{profile: smallProfile(t), refs: map[cell]outcome{}}
	cells := drawCells(matrixCells)
	for i, c := range cells {
		if (testing.Short() || raceEnabled) && !slices.Contains(coveringSubset(cells), i) {
			continue
		}
		t.Run(c.name(i), func(t *testing.T) {
			o := m.check(t, c)
			for _, class := range []string{"serving", "per-worker", "census", "bill"} {
				if c.marks || class == "serving" || class == "per-worker" {
					expectSame(t, class, m.ref(t, c.refOf(class)).fp, o.fp)
				}
			}
			if c.marks && c.delta {
				// What delta sync sent plus what it saved is the full-sync
				// bill, before compression on either side.
				full := c.refOf("bill")
				full.delta = false
				d, f := o.st, m.ref(t, full).st
				if d.SyncWireBytes+d.SyncDeltaSavedBytes+d.SyncCompressSavedBytes != f.SyncWireBytes+f.SyncCompressSavedBytes {
					t.Errorf("delta wire %d + saved %d + compression saved %d != full wire %d + compression saved %d",
						d.SyncWireBytes, d.SyncDeltaSavedBytes, d.SyncCompressSavedBytes, f.SyncWireBytes, f.SyncCompressSavedBytes)
				}
			}
		})
	}
	expectSame(t, "serving", m.ref(t, cell{}.refOf("serving")).fp, m.ref(t, cell{marks: true}.refOf("serving")).fp)
}
