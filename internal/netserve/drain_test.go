package netserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/faultnet"
	"liveupdate/internal/trace"
)

func TestHealthzAndReadyz(t *testing.T) {
	g := newTestGateway(t, &stubServer{}, Config{})
	base := "http://" + g.Addr().String()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %s, want 200 while serving", path, resp.Status)
		}
		var v struct{ Status string }
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("GET %s: body %q not JSON: %v", path, body, err)
		}
	}
	if g.draining.Load() {
		t.Error("fresh gateway reports draining")
	}
}

// TestGracefulDrainFinishesInflight is the drain acceptance test: requests
// that were accepted before Close must complete (accepted == completed),
// readiness must flip to 503 during the drain, and liveness must stay 200.
func TestGracefulDrainFinishesInflight(t *testing.T) {
	stub := &stubServer{delay: 150 * time.Millisecond}
	g := newTestGateway(t, stub, Config{MaxInflight: 8, DrainTimeout: 5 * time.Second})
	base := "http://" + g.Addr().String()

	// Launch in-flight requests and give them time to be admitted.
	const inflight = 4
	var wg sync.WaitGroup
	results := make([]int, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sample := trace.Sample{Time: float64(i + 1)}
			body, _ := json.Marshal(sample)
			resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(body))
			if err != nil {
				results[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all four are now inside Serve

	// Phase one of the two-phase restart: readiness flips while the
	// listener still serves, so a balancer can stop routing here before
	// anything closes.
	g.draining.Store(true)
	var codes [2]int
	for j, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s while draining: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes[j] = resp.StatusCode
	}

	if err := g.Close(); err != nil {
		t.Fatalf("graceful Close: %v", err)
	}
	wg.Wait()
	for i, code := range results {
		if code != http.StatusOK {
			t.Errorf("in-flight request %d finished with %d, want 200 through the drain", i, code)
		}
	}
	for _, ep := range g.WireStats() {
		if ep.Accepted != ep.Completed {
			t.Errorf("%s: accepted %d != completed %d — drain lost admitted requests",
				ep.Endpoint, ep.Accepted, ep.Completed)
		}
	}
	if total := g.WireStats()[0].Accepted + g.WireStats()[1].Accepted; total != inflight {
		t.Errorf("accepted %d requests, want %d", total, inflight)
	}
	if codes[0] != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200 (liveness holds)", codes[0])
	}
	if codes[1] != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", codes[1])
	}
	if !g.draining.Load() {
		t.Error("draining flag false after Close")
	}
}

// TestDrainTimeoutForcesClose: a serve that outlives DrainTimeout must not
// hang Close forever; Close reports the incomplete drain.
func TestDrainTimeoutForcesClose(t *testing.T) {
	stub := &stubServer{delay: 2 * time.Second}
	g := newTestGateway(t, stub, Config{DrainTimeout: 100 * time.Millisecond})
	base := "http://" + g.Addr().String()

	go func() {
		body, _ := json.Marshal(trace.Sample{Time: 1})
		resp, err := http.Post(base+"/serve", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	err := g.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v with a 100ms DrainTimeout", elapsed)
	}
	if err == nil {
		t.Error("Close reported a clean drain despite an over-deadline request")
	}
}

// TestConfigRejectsNegativeDrainTimeout keeps the validation convention.
func TestConfigRejectsNegativeDrainTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if _, err := New(&stubServer{}, ln, Config{DrainTimeout: -time.Second}); err == nil {
		t.Error("New accepted a negative DrainTimeout")
	}
}

// TestDecodeBatchTransportTruncation is the satellite decoder test: every
// strict prefix of a valid LUW1 frame — what a mid-stream connection reset
// leaves behind — must error cleanly, never panic or return partial samples.
func TestDecodeBatchTransportTruncation(t *testing.T) {
	full := AppendBatch(nil, sampleFixture())
	for n := 0; n < len(full); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodeBatch panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, err := DecodeBatch(full[:n]); err == nil {
				t.Errorf("DecodeBatch accepted a %d-byte prefix of a %d-byte frame", n, len(full))
			}
		}()
	}
	if _, err := DecodeBatch(full); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
}

// TestDecodeResponsesTransportTruncation: same contract on the response
// decoder, which the client runs against bytes a faulted wire delivered.
func TestDecodeResponsesTransportTruncation(t *testing.T) {
	full := AppendResponses(nil, []core.Response{
		{Prob: 0.25, Latency: 0.001, Replica: 1},
		{Prob: 0.75, Latency: 0.002, Replica: 2},
	})
	for n := 0; n < len(full); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodeResponses panicked on %d-byte prefix: %v", n, r)
				}
			}()
			if _, err := DecodeResponses(full[:n]); err == nil {
				t.Errorf("DecodeResponses accepted a %d-byte prefix of a %d-byte frame", n, len(full))
			}
		}()
	}
	if _, err := DecodeResponses(full); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
}

// TestBinaryEndpointSurvivesTruncatedUploads drives /serve.bin through a
// fault-wrapped listener that truncates inbound frames: the gateway must
// answer every fully delivered request normally and never crash on the cut
// ones, with the admission ledger staying consistent (accepted==completed).
func TestBinaryEndpointSurvivesTruncatedUploads(t *testing.T) {
	stub := &stubServer{}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	plan, err := faultnet.ParsePlan("truncate(p=0.2)")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 3
	g, err := New(stub, faultnet.WrapListener(inner, plan), Config{})
	if err != nil {
		t.Fatalf("netserve.New: %v", err)
	}
	defer g.Close()
	base := "http://" + inner.Addr().String()

	frame := AppendBatch(nil, sampleFixture())
	okCount, failCount := 0, 0
	for i := 0; i < 40; i++ {
		resp, err := http.Post(base+"/serve.bin", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			failCount++ // connection cut before the response: expected under truncation
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			failCount++
			continue
		}
		if _, err := DecodeResponses(data); err != nil {
			t.Fatalf("request %d: intact response failed to decode: %v", i, err)
		}
		okCount++
	}
	if okCount == 0 {
		t.Fatal("no request survived a p=0.2 truncation plan")
	}
	if failCount == 0 {
		t.Fatal("no request was cut — fault plan inert")
	}
	if g.Close() != nil {
		t.Fatal("drain after truncated uploads failed")
	}
	for _, ep := range g.WireStats() {
		if ep.Accepted != ep.Completed {
			t.Errorf("%s: accepted %d != completed %d after faulted run",
				ep.Endpoint, ep.Accepted, ep.Completed)
		}
	}
	if got := g.Stats().Wire; len(got) == 0 {
		t.Error("stats missing wire ledger")
	}
}
