package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/metrics"
	"liveupdate/internal/trace"
)

// stubServer is a controllable inner Server: Serve echoes the sample's Time
// as Prob, optionally sleeping to hold admission slots open.
type stubServer struct {
	delay   time.Duration
	served  atomic.Uint64
	batches atomic.Uint64
	failOn  float64 // sample Time that triggers an error, 0 = never
}

func (s *stubServer) Serve(sm trace.Sample) (core.Response, error) {
	if s.failOn != 0 && sm.Time == s.failOn {
		return core.Response{}, fmt.Errorf("stub: poisoned sample")
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.served.Add(1)
	return core.Response{Prob: sm.Time, Latency: 0.001, Replica: 7}, nil
}

func (s *stubServer) ServeBatch(samples []trace.Sample, resps []core.Response) error {
	s.batches.Add(1)
	for i := range samples {
		var err error
		if resps[i], err = s.Serve(samples[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *stubServer) Stats() core.Stats {
	return core.Stats{Served: s.served.Load(), P50: math.NaN(), P99: math.NaN()}
}

func newTestGateway(t *testing.T, inner Server, cfg Config) *Gateway {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	g, err := New(inner, ln, cfg)
	if err != nil {
		ln.Close()
		t.Fatalf("netserve.New: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// postFrame posts body to url with its CRC-32 in BodyChecksumHeader, as the
// network client does: POST /serve.bin refuses a body without one.
func postFrame(c *http.Client, url, ctype string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set(BodyChecksumHeader, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 16))
	return c.Do(req)
}

func TestNewValidatesArguments(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if _, err := New(nil, ln, Config{}); err == nil {
		t.Error("New accepted a nil server")
	}
	if _, err := New(&stubServer{}, nil, Config{}); err == nil {
		t.Error("New accepted a nil listener")
	}
	if _, err := New(&stubServer{}, ln, Config{MaxConns: -1}); err == nil {
		t.Error("New accepted a negative MaxConns")
	}
}

func TestServeJSONRoundTrip(t *testing.T) {
	stub := &stubServer{}
	g := newTestGateway(t, stub, Config{})
	base := "http://" + g.Addr().String()

	sample := trace.Sample{Time: 3.25, Dense: []float64{1, 2}, Sparse: [][]int32{{5}}, Label: 1}
	body, _ := json.Marshal(sample)
	resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /serve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /serve: %s", resp.Status)
	}
	var out core.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if out.Prob != 3.25 || out.Replica != 7 {
		t.Fatalf("response %+v does not echo the stub", out)
	}
	if stub.served.Load() != 1 {
		t.Fatalf("inner served %d requests, want 1", stub.served.Load())
	}
}

func TestServeBinaryRoundTrip(t *testing.T) {
	stub := &stubServer{}
	g := newTestGateway(t, stub, Config{})
	base := "http://" + g.Addr().String()

	samples := sampleFixture()
	resp, err := postFrame(http.DefaultClient, base+"/serve.bin", "application/octet-stream",
		AppendBatch(nil, samples))
	if err != nil {
		t.Fatalf("POST /serve.bin: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /serve.bin: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	out, err := DecodeResponses(data)
	if err != nil {
		t.Fatalf("decoding responses: %v", err)
	}
	if len(out) != len(samples) {
		t.Fatalf("got %d responses for %d samples", len(out), len(samples))
	}
	for i := range out {
		if out[i].Prob != samples[i].Time {
			t.Fatalf("response %d out of order: prob %v, want %v", i, out[i].Prob, samples[i].Time)
		}
	}
	if stub.batches.Load() != 1 {
		t.Fatalf("batch path not used: %d batches", stub.batches.Load())
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	g := newTestGateway(t, &stubServer{}, Config{})
	base := "http://" + g.Addr().String()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed JSON", "/serve", "{not json", http.StatusBadRequest},
		{"oversized sample", "/serve",
			fmt.Sprintf(`{"Sparse":[[%s]]}`, strings.Repeat("1,", maxWireIDs)+"1"),
			http.StatusBadRequest},
		{"bad binary magic", "/serve.bin", "XXXXXXXX", http.StatusBadRequest},
		{"GET on POST endpoint", "/serve", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.name == "GET on POST endpoint" {
				resp, err = http.Get(base + tc.path)
			} else {
				resp, err = postFrame(http.DefaultClient, base+tc.path, "application/json", []byte(tc.body))
			}
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %s, want %d", resp.Status, tc.want)
			}
		})
	}
}

// TestBodyChecksumGuardsServe holds readBody's integrity check on both serve
// endpoints: a body whose X-Liveupdate-Crc32 does not match, or is not hex,
// is refused with 400 before the inner server sees it; a matching checksum
// is served, and so is none at all on JSON /serve, but not on /serve.bin.
func TestBodyChecksumGuardsServe(t *testing.T) {
	stub := &stubServer{}
	g := newTestGateway(t, stub, Config{})
	base := "http://" + g.Addr().String()

	jsonBody, _ := json.Marshal(trace.Sample{Time: 1.5, Dense: []float64{1}, Sparse: [][]int32{{2}}})
	bodies := map[string][]byte{"/serve": jsonBody, "/serve.bin": AppendBatch(nil, sampleFixture())}
	for path, body := range bodies {
		sum := crc32.ChecksumIEEE(body)
		for _, tc := range []struct {
			name, crc string
			want      int
		}{
			{"mismatched", strconv.FormatUint(uint64(sum^1), 16), http.StatusBadRequest},
			{"non-hex", "not-a-crc", http.StatusBadRequest},
			{"correct", strconv.FormatUint(uint64(sum), 16), http.StatusOK},
			{"absent", "", map[bool]int{true: http.StatusBadRequest, false: http.StatusOK}[path == "/serve.bin"]},
		} {
			req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.crc != "" {
				req.Header.Set(BodyChecksumHeader, tc.crc)
			}
			before := stub.served.Load()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", path, tc.name, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s with %s checksum: %s, want %d", path, tc.name, resp.Status, tc.want)
			}
			if served := stub.served.Load() > before; served != (tc.want == http.StatusOK) {
				t.Fatalf("%s with %s checksum: inner served=%v", path, tc.name, served)
			}
		}
	}
}

// TestOversizedBodyIs413 sends a body over the JSON cap and expects the
// request rejected before decoding, per the emt checkpoint discipline.
func TestOversizedBodyIs413(t *testing.T) {
	g := newTestGateway(t, &stubServer{}, Config{})
	base := "http://" + g.Addr().String()

	big := bytes.Repeat([]byte("a"), maxJSONBody+1)
	resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatalf("POST /serve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %s, want 413", resp.Status)
	}
}

func TestStatsEndpointFoldsWireLedger(t *testing.T) {
	g := newTestGateway(t, &stubServer{}, Config{})
	base := "http://" + g.Addr().String()

	sample, _ := json.Marshal(trace.Sample{Time: 1})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(sample))
		if err != nil {
			t.Fatalf("POST /serve: %v", err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st core.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Served != 3 {
		t.Errorf("Served = %d, want 3", st.Served)
	}
	// The stub reports NaN quantiles; the wire must carry the sentinel.
	if st.P50 != wireNaN || st.P99 != wireNaN {
		t.Errorf("NaN quantiles not sanitized: P50=%v P99=%v", st.P50, st.P99)
	}
	if len(st.Wire) != 2 {
		t.Fatalf("wire ledger has %d endpoints, want 2", len(st.Wire))
	}
	var serve core.EndpointStats
	for _, ep := range st.Wire {
		if ep.Endpoint == "/serve" {
			serve = ep
		}
	}
	if serve.Accepted != 3 || serve.Shed != 0 {
		t.Errorf("/serve ledger %+v, want 3 accepted / 0 shed", serve)
	}
}

func TestInfoHandshake(t *testing.T) {
	g := newTestGateway(t, &stubServer{}, Config{})
	resp, err := http.Get("http://" + g.Addr().String() + "/info")
	if err != nil {
		t.Fatalf("GET /info: %v", err)
	}
	defer resp.Body.Close()
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding info: %v", err)
	}
	if info.Protocol != protocolVersion {
		t.Errorf("Protocol = %d, want %d", info.Protocol, protocolVersion)
	}
	// The stub exposes no Profile/NumShards; the handshake
	// degrades to defaults rather than failing.
	if info.Replicas != 1 || info.Profile != "" {
		t.Errorf("stub handshake %+v, want 1 replica and empty profile", info)
	}
}

// TestFlashCrowdSheds429 saturates a one-slot, two-deep gateway with a burst
// far wider than its capacity: the overflow must come back as 429 with
// Retry-After hints, while every accepted request completes.
func TestFlashCrowdSheds429(t *testing.T) {
	stub := &stubServer{delay: 20 * time.Millisecond}
	g := newTestGateway(t, stub, Config{MaxInflight: 1, QueueDepth: 2})
	base := "http://" + g.Addr().String()

	const burst = 16
	var wg sync.WaitGroup
	var ok, shed atomic.Uint64
	sample, _ := json.Marshal(trace.Sample{Time: 1})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(sample))
			if err != nil {
				t.Errorf("POST /serve: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				if ms := resp.Header.Get("X-Retry-After-Ms"); ms == "" {
					t.Error("429 without X-Retry-After-Ms")
				} else if v, err := strconv.Atoi(ms); err != nil || v < 1 {
					t.Errorf("X-Retry-After-Ms = %q, want a positive integer", ms)
				}
				var body struct {
					Error  string `json:"error"`
					Reason string `json:"reason"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error != "overloaded" {
					t.Errorf("429 body %+v (err %v), want overloaded", body, err)
				}
			default:
				t.Errorf("unexpected status %s", resp.Status)
			}
		}()
	}
	wg.Wait()

	// Capacity is 1 inflight + 2 queued: a 16-wide burst must shed and must
	// also serve at least the requests that held capacity.
	if shed.Load() == 0 {
		t.Fatal("flash crowd shed nothing")
	}
	if ok.Load() == 0 {
		t.Fatal("flash crowd served nothing")
	}
	if ok.Load()+shed.Load() != burst {
		t.Fatalf("accounting: %d ok + %d shed != %d", ok.Load(), shed.Load(), burst)
	}
	if stub.served.Load() != ok.Load() {
		t.Fatalf("inner served %d but %d clients got 200", stub.served.Load(), ok.Load())
	}
	for _, ep := range g.WireStats() {
		if ep.Endpoint == "/serve" {
			if ep.Accepted != ok.Load() || ep.Shed != shed.Load() {
				t.Fatalf("ledger %+v disagrees with clients (%d ok, %d shed)", ep, ok.Load(), shed.Load())
			}
			if ep.Inflight != 0 || ep.Queued != 0 {
				t.Fatalf("gauges leaked after drain: %+v", ep)
			}
		}
	}
}

func TestInnerServeErrorIs422(t *testing.T) {
	g := newTestGateway(t, &stubServer{failOn: 13}, Config{})
	body, _ := json.Marshal(trace.Sample{Time: 13})
	resp, err := http.Post("http://"+g.Addr().String()+"/serve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /serve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %s, want 422", resp.Status)
	}
}

// TestMalformedSampleIs422AndNodeStaysUsable: a sample inside the wire caps
// but outside the served profile — a short dense vector, an id past the
// table — is the node's error, so both endpoints answer 422, and the node
// then serves and trains as before instead of being left locked.
func TestMalformedSampleIs422AndNodeStaysUsable(t *testing.T) {
	p := trace.Profiles()["criteo"]
	p.NumTables, p.TableSize, p.NumDense, p.MultiHot = 3, 200, 4, []int{1, 1, 1}
	sys, err := core.New(core.DefaultOptions(p, 5))
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + newTestGateway(t, sys, Config{}).Addr().String()
	good := trace.MustNewGenerator(p, 6).Next()
	short := good
	short.Dense = good.Dense[:2]
	farID := good
	farID.Sparse = [][]int32{{int32(p.TableSize)}, good.Sparse[1], good.Sparse[2]}

	hc := &http.Client{Timeout: 5 * time.Second}
	post := func(path string, s trace.Sample) int {
		body, ctype := AppendBatch(nil, []trace.Sample{good, s}), "application/octet-stream"
		if path == "/serve" {
			body, _ = json.Marshal(s)
			ctype = "application/json"
		}
		resp, err := postFrame(hc, base+path, ctype, body)
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// A non-empty ring, so the tick below takes the parameter lock.
	if code := post("/serve", good); code != http.StatusOK {
		t.Fatalf("good sample: status %d", code)
	}
	for _, path := range []string{"/serve", "/serve.bin"} {
		for _, bad := range []trace.Sample{short, farID} {
			if code := post(path, bad); code != http.StatusUnprocessableEntity {
				t.Errorf("malformed sample on %s: status %d, want 422", path, code)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		sys.TrainTick()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("TrainTick blocked: a rejected sample left the node locked")
	}
	for _, path := range []string{"/serve", "/serve.bin"} {
		if code := post(path, good); code != http.StatusOK {
			t.Fatalf("good sample on %s after the rejections: status %d", path, code)
		}
	}
}

func TestGatewayCloseIsIdempotent(t *testing.T) {
	g := newTestGateway(t, &stubServer{}, Config{})
	if err := g.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The listener must actually be closed.
	if _, err := net.DialTimeout("tcp", g.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}

func TestGatewayServesInProcess(t *testing.T) {
	stub := &stubServer{}
	g := newTestGateway(t, stub, Config{})
	resp, err := g.Serve(trace.Sample{Time: 9})
	if err != nil {
		t.Fatalf("in-process Serve: %v", err)
	}
	if resp.Prob != 9 {
		t.Fatalf("in-process Serve returned %+v", resp)
	}
	if st := g.Stats(); st.Served != 1 || len(st.Wire) != 2 {
		t.Fatalf("Stats %+v, want 1 served and a 2-endpoint wire ledger", st)
	}
}

// TestMetricsAnswerDuringOverload is the observability-under-load gate:
// while /serve sheds 429s (one inflight slot held by a slow request, queue
// full), /metrics and /stats must still answer 200 — the scrape path never
// passes through admission control.
func TestMetricsAnswerDuringOverload(t *testing.T) {
	stub := &stubServer{delay: 200 * time.Millisecond}
	g := newTestGateway(t, stub, Config{MaxInflight: 1, QueueDepth: 1})
	base := "http://" + g.Addr().String()

	sample, _ := json.Marshal(trace.Sample{Time: 1})
	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(sample))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Wait until the gate has demonstrably shed (overload in progress).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var shed uint64
		for _, ep := range g.WireStats() {
			shed += ep.Shed
		}
		if shed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flash crowd never shed; cannot test overload behavior")
		}
		time.Sleep(time.Millisecond)
	}

	for _, path := range []string{"/metrics", "/stats", "/debug/vars"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s during overload: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during overload: %s (want 200)", path, resp.Status)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s returned an empty body", path)
		}
		if path == "/metrics" {
			out := string(body)
			if !strings.Contains(out, "# TYPE liveupdate_wire_serve_shed_total counter") {
				t.Fatalf("/metrics missing shed counter family:\n%s", out)
			}
			if strings.Contains(out, "liveupdate_wire_serve_shed_total 0\n") {
				t.Fatalf("/metrics reports zero sheds mid-overload:\n%s", out)
			}
		}
	}
	wg.Wait()
}

// TestObservabilityEndpoints covers the telemetry export surfaces end to
// end: Prometheus text on /metrics, expvar JSON on /debug/vars, a
// Perfetto-loadable trace on /trace, and pprof behind the opt-in.
func TestObservabilityEndpoints(t *testing.T) {
	tel := metrics.NewTelemetry(metrics.TelemetryConfig{SampleEvery: 1, Pprof: true})
	stub := &stubServer{}
	g := newTestGateway(t, stub, Config{Telemetry: tel})
	base := "http://" + g.Addr().String()

	// Drive a few requests through admission so ledger counters move (none
	// queue — the gate has headroom — so no queue_wait spans; record one
	// span directly so /trace has content).
	sample, _ := json.Marshal(trace.Sample{Time: 2})
	for i := 0; i < 5; i++ {
		resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(sample))
		if err != nil {
			t.Fatalf("POST /serve: %v", err)
		}
		resp.Body.Close()
	}
	tr := tel.Tracer()
	tr.StageEnd(metrics.StageQueueWait, tr.StageStart(metrics.StageQueueWait))

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(string(body), "liveupdate_wire_serve_accepted_total 5\n") {
		t.Fatalf("/metrics missing accepted counter = 5:\n%s", body)
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not valid JSON: %v", err)
	}
	if vars["liveupdate_wire_serve_accepted_total"] != float64(5) {
		t.Fatalf("vars accepted = %v, want 5", vars["liveupdate_wire_serve_accepted_total"])
	}

	code, body = get("/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("/trace has no complete events:\n%s", body)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline with Pprof on: status %d", code)
	}

	// Without the opt-in, pprof must NOT be mounted.
	g2 := newTestGateway(t, stub, Config{})
	resp, err := http.Get("http://" + g2.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof answered without the opt-in")
	}
	// The default gateway still serves the scrape surfaces.
	resp, err = http.Get("http://" + g2.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics without explicit telemetry: %s", resp.Status)
	}
}
