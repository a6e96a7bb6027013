// Package netserve is the optional network front end: it exposes any serving
// Server (a single System or a replica Cluster) over a real TCP listener as
// HTTP/1.1 — JSON for one sample (the curl-able debug path), a
// length-prefixed binary frame for everything a load driver sends — with
// connection limits, a bounded FIFO admission queue, and
// SLA-budget-aware load shedding (429 + Retry-After when the queue or the
// latency budget is exhausted).
//
// The in-process virtual-time mode remains the deterministic test harness;
// the wire path is where wall-clock QPS numbers become honest. Virtual-time
// statistics are still computed server-side and keep their meaning, but
// request arrival order over concurrent connections is wall-clock real, so
// the worker-count invariance contract applies to in-process driving only.
package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/metrics"
	"liveupdate/internal/trace"
)

// Server is the serving surface the gateway fronts; both *core.System and
// *cluster.Cluster implement it. POST /serve calls Serve, and every
// POST /serve.bin frame is one ServeBatch call.
type Server interface {
	Serve(trace.Sample) (core.Response, error)
	// ServeBatch serves samples in order, filling resps (same length).
	ServeBatch([]trace.Sample, []core.Response) error
	Stats() core.Stats
}

// epMetrics is one endpoint's admission ledger (lock-free counters + gauges).
// completed counts accepted requests whose serve finished — after a graceful
// drain, accepted == completed proves the drain shed zero admitted work.
type epMetrics struct {
	accepted  atomic.Uint64
	completed atomic.Uint64
	shed      atomic.Uint64
	inflight  atomic.Int64
	queued    atomic.Int64
}

// Gateway serves an inner Server over a listener. Construct with New; close
// with Close. A Gateway also implements Server itself — its Serve/Stats
// delegate in-process (bypassing admission control, which exists to protect
// the wire), with Stats folding the wire admission ledger into the snapshot.
type Gateway struct {
	inner Server
	cfg   Config
	gate  *gate
	ln    net.Listener
	hs    *http.Server

	eps map[string]*epMetrics // keyed by endpoint path

	// tel is never nil (a private registry-only Telemetry is created when
	// Config.Telemetry is absent), so the observability endpoints always
	// answer; tracer is nil unless stage tracing was enabled.
	tel    *metrics.Telemetry
	tracer *metrics.Tracer

	draining  atomic.Bool // set at the top of Close; /readyz flips to 503
	closeOnce sync.Once
	closeErr  error
	done      chan struct{} // closed when the accept loop exits
}

// faultCounting is implemented by a faultnet-wrapped listener; the gateway
// publishes its tally as liveupdate_wire_faults_total (zero otherwise), so
// the metric exists on every gateway and scrape assertions never flake.
type faultCounting interface {
	FaultsTotal() uint64
}

// New starts a gateway serving inner on ln. The listener is consumed: the
// gateway owns it and closes it on Close. cfg zero values take the package
// defaults (see Config).
func New(inner Server, ln net.Listener, cfg Config) (*Gateway, error) {
	if inner == nil {
		return nil, fmt.Errorf("netserve: nil server")
	}
	if ln == nil {
		return nil, fmt.Errorf("netserve: nil listener")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		inner: inner,
		cfg:   cfg,
		gate:  newGate(cfg),
		ln:    ln,
		done:  make(chan struct{}),
		eps: map[string]*epMetrics{
			"/serve":     {},
			"/serve.bin": {},
		},
	}
	g.tel = cfg.Telemetry
	if g.tel == nil {
		g.tel = metrics.NewTelemetry(metrics.TelemetryConfig{}) // registry only: scrape endpoints always answer
	}
	g.tracer = g.tel.Tracer()
	g.registerWireInstruments()

	// Observability endpoints never pass through g.admit: they must answer
	// while /serve sheds 429s — watching an overload is the point. Only the
	// serving endpoints consume admission tickets.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /serve", g.handleServe)
	mux.HandleFunc("POST /serve.bin", g.handleServeBin)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.HandleFunc("GET /info", g.handleInfo)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /debug/vars", g.handleVars)
	mux.HandleFunc("GET /trace", g.handleTrace)
	if g.tel.Config().Pprof {
		// Opt-in: profiling endpoints are a debug surface. Mounted on the
		// gateway's own mux (not DefaultServeMux), admission-exempt like the
		// other observability handlers.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	g.hs = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		defer close(g.done)
		// ErrServerClosed is the normal shutdown path; anything else would
		// surface on Close.
		if err := g.hs.Serve(newLimitListener(ln, cfg.MaxConns)); !errors.Is(err, http.ErrServerClosed) {
			g.closeErr = err
		}
	}()
	return g, nil
}

// registerWireInstruments exposes the admission ledger through the metrics
// registry: per-endpoint accepted/shed counters plus gate occupancy gauges,
// all reading the same lock-free atomics (or the brief gate mutex) the
// ledger already keeps — a scrape never touches a serving lock.
func (g *Gateway) registerWireInstruments() {
	reg := g.tel.Registry()
	slugger := strings.NewReplacer("/", "", ".", "_")
	for path, m := range g.eps {
		slug := slugger.Replace(path) // "/serve" → "serve", "/serve.bin" → "serve_bin"
		reg.CounterFunc("liveupdate_wire_"+slug+"_accepted_total",
			"Wire requests admitted and served on "+path+".", m.accepted.Load)
		reg.CounterFunc("liveupdate_wire_"+slug+"_shed_total",
			"Wire requests shed with 429 on "+path+".", m.shed.Load)
		reg.CounterFunc("liveupdate_wire_"+slug+"_completed_total",
			"Accepted wire requests whose serve finished on "+path+".", m.completed.Load)
	}
	// Always registered: zero on an unfaulted listener, the injected-fault
	// tally when the listener is wrapped by internal/faultnet.
	reg.CounterFunc("liveupdate_wire_faults_total",
		"Network faults injected into this gateway's listener by the faultnet harness.",
		func() uint64 {
			if fc, ok := g.ln.(faultCounting); ok {
				return fc.FaultsTotal()
			}
			return 0
		})
	reg.GaugeFunc("liveupdate_wire_inflight",
		"Wire requests being served right now (all endpoints).",
		func() float64 { inflight, _ := g.gate.occupancy(); return float64(inflight) })
	reg.GaugeFunc("liveupdate_wire_queued",
		"Wire requests waiting in the admission queue.",
		func() float64 { _, queued := g.gate.occupancy(); return float64(queued) })
}

// Telemetry returns the gateway's observability surface (never nil; a
// registry-only Telemetry is created when none was configured).
func (g *Gateway) Telemetry() *metrics.Telemetry { return g.tel }

// Addr returns the listener's address (useful with ":0" listeners).
func (g *Gateway) Addr() net.Addr { return g.ln.Addr() }

// Close drains the gateway gracefully: readiness flips to 503, the listener
// stops accepting, in-flight and queued requests get up to DrainTimeout to
// finish, and only then is anything force-closed — a restart behind a
// readiness-aware balancer sheds zero accepted requests. Idempotent.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		g.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.DrainTimeout)
		defer cancel()
		err := g.hs.Shutdown(ctx)
		if err != nil {
			// Drain deadline expired with requests still in flight: force
			// close the stragglers, but report the incomplete drain.
			g.hs.Close()
			if g.closeErr == nil {
				g.closeErr = fmt.Errorf("netserve: drain timeout after %v: %w", g.cfg.DrainTimeout, err)
			}
		}
		<-g.done
	})
	return g.closeErr
}

// handleHealthz is liveness: the process is up and answering. It stays 200
// through a drain — a draining gateway is alive, just not ready.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if g.draining.Load() {
		status = "draining"
	}
	fmt.Fprintf(w, `{"status":%q}`+"\n", status)
}

// handleReadyz is readiness: 200 while accepting traffic, 503 once draining
// so balancers stop routing here before the listener actually closes.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if g.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ready"}`)
}

// Serve delegates to the inner server in-process. The admission gate is not
// consulted: it protects the wire from remote overload, while an in-process
// caller is already inside the trust and back-pressure domain.
func (g *Gateway) Serve(s trace.Sample) (core.Response, error) { return g.inner.Serve(s) }

// Stats snapshots the inner server and folds in the wire admission ledger.
func (g *Gateway) Stats() core.Stats {
	st := g.inner.Stats()
	st.Wire = g.WireStats()
	return st
}

// WireStats returns the per-endpoint admission ledger, sorted by endpoint.
func (g *Gateway) WireStats() []core.EndpointStats {
	out := make([]core.EndpointStats, 0, len(g.eps))
	for path, m := range g.eps {
		out = append(out, core.EndpointStats{
			Endpoint:  path,
			Accepted:  m.accepted.Load(),
			Completed: m.completed.Load(),
			Shed:      m.shed.Load(),
			Inflight:  int(m.inflight.Load()),
			Queued:    int(m.queued.Load()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// admit runs the admission gate for one wire request on an endpoint. It
// returns false after writing the 429 when the request is shed; on true the
// caller MUST call the returned release func when serving finishes.
func (g *Gateway) admit(w http.ResponseWriter, ep *epMetrics) (release func(), ok bool) {
	// The queue-wait span brackets only an actual stay in the queue: the
	// onQueued hook (run under the gate lock, cost: one atomic add and a
	// clock read) opens it, onDequeued closes it. Requests admitted straight
	// into an inflight slot record nothing.
	var waitT0 int64
	retry, reason := g.gate.enter(
		func() { ep.queued.Add(1); waitT0 = g.tracer.StageStart(metrics.StageQueueWait) },
		func() { g.tracer.StageEnd(metrics.StageQueueWait, waitT0); ep.queued.Add(-1) },
	)
	if reason != "" {
		ep.shed.Add(1)
		// Retry-After is whole seconds by spec (floored at 1); the
		// millisecond header carries the real estimate for clients that can
		// use it.
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(int64((retry+time.Millisecond-1)/time.Millisecond), 10))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error":"overloaded","reason":%q}`+"\n", reason)
		return nil, false
	}
	ep.accepted.Add(1)
	ep.inflight.Add(1)
	start := time.Now()
	return func() {
		ep.inflight.Add(-1)
		g.gate.leave(time.Since(start))
	}, true
}

// handleServe is the JSON single-request endpoint.
func (g *Gateway) handleServe(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxJSONBody, false)
	if !ok {
		return
	}
	var sample trace.Sample
	if err := json.Unmarshal(body, &sample); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("netserve: bad sample JSON: %w", err))
		return
	}
	if err := validateSample(sample); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ep := g.eps["/serve"]
	release, ok := g.admit(w, ep)
	if !ok {
		return
	}
	resp, err := g.inner.Serve(sample)
	release()
	ep.completed.Add(1)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, resp)
}

// handleServeBin is the binary batch endpoint. One wire request carries a
// whole batch and rides one admission ticket: the queue bounds wire
// requests, and a remote lane's coalesced batch is one unit of work.
func (g *Gateway) handleServeBin(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxBinaryBody, true)
	if !ok {
		return
	}
	samples, err := DecodeBatch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ep := g.eps["/serve.bin"]
	release, ok := g.admit(w, ep)
	if !ok {
		return
	}
	resps := make([]core.Response, len(samples))
	err = g.inner.ServeBatch(samples, resps)
	release()
	ep.completed.Add(1)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(AppendResponses(make([]byte, 0, 4+4+20*len(resps)), resps)); err != nil {
		// Client went away mid-response; nothing useful left to do.
		return
	}
}

// handleStats returns the merged Stats snapshot (wire ledger included), with
// NaN quantiles mapped to the wire sentinel.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, sanitizeStats(g.Stats()))
}

// handleMetrics renders the metrics registry in Prometheus text format.
// Strictly side-band: it reads registry instruments and lock-free gauges —
// never the inner server's Stats(), whose fleet form drains the async sync
// pipeline and would perturb a deterministic run mid-flight.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.tel.WriteMetrics(w)
}

// handleVars is the expvar-style JSON view of the same registry.
func (g *Gateway) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = g.tel.WriteVars(w)
}

// handleTrace dumps the sampled span ring as Chrome trace-event JSON,
// loadable in Perfetto. Empty (but valid) when stage tracing is off.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="liveupdate-trace.json"`)
	_ = g.tel.WriteTrace(w)
}

// handleInfo returns the handshake payload.
func (g *Gateway) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := Info{Protocol: protocolVersion, Replicas: 1}
	if p, ok := g.inner.(interface{ Profile() trace.Profile }); ok {
		info.Profile = strings.ToLower(p.Profile().Name)
	}
	if s, ok := g.inner.(interface{ NumShards() int }); ok {
		info.Replicas = s.NumShards()
	}
	writeJSON(w, info)
}

// BodyChecksumHeader carries the client's CRC-32 (IEEE, lowercase hex) of
// the request body. The gateway verifies it before decoding: a mismatch — a
// frame damaged between the client and the serving path — is rejected with
// 400 so the client retries with an intact copy, instead of a bit-flipped
// body being served as a silently different sample. POST /serve.bin, whose
// client always sends it, requires it: otherwise a flipped bit in the
// header's name would drop the check and serve the damaged frame. On JSON
// /serve it is optional.
const BodyChecksumHeader = "X-Liveupdate-Crc32"

// readBody reads a request body bounded at cap bytes, translating the
// over-limit error to 413 before any decoding work happens, and verifies
// the end-to-end checksum, which sumRequired makes mandatory.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, sumRequired bool) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("netserve: request body exceeds %d bytes", limit))
		} else {
			httpError(w, http.StatusBadRequest, fmt.Errorf("netserve: reading body: %w", err))
		}
		return nil, false
	}
	if want := r.Header.Get(BodyChecksumHeader); want != "" || sumRequired {
		sum, err := strconv.ParseUint(want, 16, 32)
		if err != nil || uint32(sum) != crc32.ChecksumIEEE(body) {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("netserve: body integrity check failed (%s mismatch)", BodyChecksumHeader))
			return nil, false
		}
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a client that vanished mid-write is not our error
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"error":%q}`+"\n", err.Error())
}
