package netclient

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"liveupdate/internal/core"
	"liveupdate/internal/driver"
	"liveupdate/internal/faultnet"
	"liveupdate/internal/netserve"
	"liveupdate/internal/obs"
	"liveupdate/internal/trace"
)

// TestRetryAfterHostileHeaders is the satellite table test: hostile
// Retry-After values must clamp into [0, max] instead of overflowing or
// poisoning the back-off.
func TestRetryAfterHostileHeaders(t *testing.T) {
	const max = 250 * time.Millisecond
	cases := []struct {
		name string
		ms   string // X-Retry-After-Ms
		sec  string // Retry-After
		want time.Duration
	}{
		{"absent", "", "", time.Millisecond},
		{"normal ms", "40", "", 40 * time.Millisecond},
		{"normal seconds", "", "1", max}, // 1s > max → clamp
		{"ms preferred over seconds", "40", "100", 40 * time.Millisecond},
		{"zero ms falls through to floor", "0", "", time.Millisecond},
		{"negative ms", "-500", "", time.Millisecond},
		{"non-numeric ms", "soon", "", time.Millisecond},
		{"non-numeric seconds", "", "Fri, 31 Dec 1999 23:59:59 GMT", time.Millisecond},
		{"absurd ms", "999999999999999999", "", max},
		// Would overflow time.Duration multiplication into a negative value
		// that sails under any downstream cap — the historical bug.
		{"overflow ms", "9223372036854775807", "", max},
		{"overflow seconds", "", "9223372036854775807", max},
		{"negative seconds", "", "-5", time.Millisecond},
		{"empty ms with seconds", "", "100000", max},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.ms != "" {
			h.Set("X-Retry-After-Ms", tc.ms)
		}
		if tc.sec != "" {
			h.Set("Retry-After", tc.sec)
		}
		got := retryAfter(h, max)
		if got != tc.want {
			t.Errorf("%s: retryAfter = %v, want %v", tc.name, got, tc.want)
		}
		if got < 0 || got > max {
			t.Errorf("%s: retryAfter = %v escaped [0, %v]", tc.name, got, max)
		}
	}
	if got := retryAfter(nil, max); got != time.Millisecond {
		t.Errorf("nil header: retryAfter = %v, want 1ms floor", got)
	}
}

// shedForever is a gateway-shaped handler that 429s every serve request with
// an arbitrarily long Retry-After hint.
func shedForever(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"protocol":1,"profile":"criteo","replicas":1,"batchHint":8}`))
	})
	mux.HandleFunc("/serve", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Retry-After-Ms", "60000")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestShedWaitHonorsContextCancellation is the satellite regression test for
// the bare time.Sleep at the old netclient.go:298: a cancelled bound context
// must interrupt the Retry-After sleep immediately instead of hanging up to
// MaxRetryWait per in-flight retry.
func TestShedWaitHonorsContextCancellation(t *testing.T) {
	srv := shedForever(t)
	c, err := Dial(srv.Listener.Addr().String(), Config{
		Retries:      1000,
		MaxRetryWait: 10 * time.Second, // a bare sleep would hang here
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c.BindContext(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := c.Serve(trace.Sample{Sparse: [][]int32{{1}}})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt reach the shed wait
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve succeeded against a shed-forever server")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve error = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Serve still hanging after 2s — retry sleep ignores context")
	}
	if c.GaveUp() == 0 {
		t.Error("cancelled request not counted in GaveUp")
	}
}

// TestTransportErrorsRetryWithBackoff kills the gateway mid-drive and brings
// it back: the client must ride out the outage on exponential backoff.
func TestTransportErrorsRetryWithBackoff(t *testing.T) {
	var failures atomic.Int64
	failures.Store(3) // fail the first 3 serve attempts at the TCP level
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"protocol":1,"profile":"criteo","replicas":1,"batchHint":8}`))
	})
	mux.HandleFunc("/serve", func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close() // raw reset: the client sees a transport error
			return
		}
		w.Write([]byte(`{"prob":0.5,"latency":0.001}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, err := Dial(srv.Listener.Addr().String(), Config{
		BackoffBase:  time.Millisecond,
		MaxRetryWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	resp, err := c.Serve(trace.Sample{Sparse: [][]int32{{1}}})
	if err != nil {
		t.Fatalf("Serve through transport errors: %v", err)
	}
	if resp.Prob != 0.5 {
		t.Errorf("Prob = %v, want 0.5", resp.Prob)
	}
	if got := c.TransportRetries(); got != 3 {
		t.Errorf("TransportRetries = %d, want 3", got)
	}
	if c.RetryWait() <= 0 {
		t.Error("transport retries slept zero time — backoff inert")
	}
}

// TestCircuitBreakerOpensAndRecovers verifies the breaker state machine:
// K consecutive failures open it, the next attempt waits out the cooldown as
// a half-open probe, and a successful probe closes it.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"protocol":1,"profile":"criteo","replicas":1,"batchHint":8}`))
	})
	var attempts atomic.Int64
	mux.HandleFunc("/serve", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		if down.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"prob":0.5,"latency":0.001}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tel := obs.New(obs.Config{})
	c, err := Dial(srv.Listener.Addr().String(), Config{
		Retries:          1000,
		BackoffBase:      time.Millisecond,
		MaxRetryWait:     5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Telemetry:        tel,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Recover the server shortly after the breaker has had time to open.
	go func() {
		time.Sleep(120 * time.Millisecond)
		down.Store(false)
	}()
	start := time.Now()
	if _, err := c.Serve(trace.Sample{Sparse: [][]int32{{1}}}); err != nil {
		t.Fatalf("Serve through outage: %v", err)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Error("request completed before the outage ended — breaker test inert")
	}
	if c.BreakerOpenLanes() != 0 {
		t.Errorf("breaker still open after recovery: %d lanes", c.BreakerOpenLanes())
	}
	// With a 3-strike threshold and 50ms cooldowns inside a ~120ms outage,
	// the breaker must have throttled attempts well below the free-running
	// backoff rate (~5ms cap → dozens of attempts).
	if n := attempts.Load(); n > 12 {
		t.Errorf("server saw %d attempts through a 120ms outage — breaker never gated", n)
	}
	// The registered gauge reads 0 now; the retries counter must be live.
	found := map[string]float64{}
	for _, m := range tel.Registry().Snapshot() {
		found[m.Name] = m.Value
	}
	if found["liveupdate_client_retries_total"] == 0 {
		t.Error("liveupdate_client_retries_total not registered or zero after retries")
	}
	if v, ok := found["liveupdate_client_breaker_open"]; !ok || v != 0 {
		t.Errorf("liveupdate_client_breaker_open = %v (present=%v), want 0 after recovery", v, ok)
	}
}

// TestFailoverRotatesAddresses stands up a dead primary-shaped address plus a
// live gateway as failover: the client must rotate to the live address and
// complete.
func TestFailoverRotatesAddresses(t *testing.T) {
	live := shedlessGateway(t)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here any more

	// Handshake runs against the live primary; serve traffic starts on the
	// dead failover address by rotating after an injected first failure —
	// simplest deterministic setup: primary live, failover dead, and verify
	// traffic still completes even when the lane rotates through the dead
	// address on a transient error.
	c, err := Dial(live, Config{
		Failover:     []string{deadAddr},
		Timeout:      500 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		MaxRetryWait: 5 * time.Millisecond,
		Retries:      16,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// Force the lane onto the dead address as if a transient error had
	// rotated it there; the next attempts must fail over back to the live
	// primary and succeed.
	c.lanes[0].advance(len(c.addrs))
	gen, err := trace.NewGenerator(smallProfile(t), 5)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	if _, err := c.Serve(gen.Next()); err != nil {
		t.Fatalf("Serve with dead failover in rotation: %v", err)
	}
	if c.TransportRetries() == 0 {
		t.Error("lane never touched the dead address — rotation inert")
	}
}

func shedlessGateway(t *testing.T) string {
	t.Helper()
	addr, _ := startGateway(t, netserve.Config{})
	return addr
}

// TestPerAttemptDeadline verifies a stalled server fails one attempt at
// Timeout rather than hanging the request forever: with a blackhole-style
// handler that never answers, attempts time out and the budget drains.
func TestPerAttemptDeadline(t *testing.T) {
	stall := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"protocol":1,"profile":"criteo","replicas":1,"batchHint":8}`))
	})
	mux.HandleFunc("/serve", func(w http.ResponseWriter, r *http.Request) { <-stall })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(stall) // release stalled handlers before srv.Close waits on them

	c, err := Dial(srv.Listener.Addr().String(), Config{
		Timeout:      50 * time.Millisecond,
		Retries:      2,
		BackoffBase:  time.Millisecond,
		MaxRetryWait: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Serve(trace.Sample{Sparse: [][]int32{{1}}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Serve succeeded against a stalled server")
	}
	// 3 attempts × 50ms + small backoffs: well under a second.
	if elapsed > 2*time.Second {
		t.Fatalf("gave up after %v — per-attempt deadline not applied", elapsed)
	}
	if c.GaveUp() != 1 {
		t.Errorf("GaveUp = %d, want 1", c.GaveUp())
	}
}

// TestDriveSurvivesListenerFaults drives one trace through a real loopback
// gateway once per fault plan — fault-free, then once per fault class, each
// from a fixed seed so a failure replays exactly — and asserts the wire
// path's resilience contract on every row:
//
//   - reconciliation: accepted + gaveUp == sent, with gaveUp 0, so no fault
//     lost or duplicated a served request;
//   - drain ledger: after the graceful Close, accepted == completed on every
//     endpoint;
//   - virtual-time identity: the server's virtual-time stats equal an
//     in-process core.System drive of the same trace. Faults cost wall-clock
//     time, never simulated state.
//
// One worker on one lane with unbatched requests is a closed loop in which
// retries preserve arrival order, which makes the identity exact. Every
// injected delay stays far below the client's per-attempt deadline, so a
// request is never abandoned while the server still serves it (the one way
// a duplicate could happen). The corrupt row survives bit flips because the
// gateway verifies each body's CRC-32 before admission.
func TestDriveSurvivesListenerFaults(t *testing.T) {
	const seed, requests = 7, 200
	p := smallProfile(t)
	newSystem := func(t *testing.T) *core.System {
		opts := core.DefaultOptions(p, seed)
		opts.TrainInterval = 4
		sys, err := core.New(opts)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		return sys
	}
	drive := func(t *testing.T, srv driver.Server) {
		gen, err := trace.NewGenerator(p, seed^0x51)
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		if _, err := driver.Drive(context.Background(), srv, gen.Next, driver.Config{
			Requests: requests, Workers: 1, Seed: seed,
		}); err != nil {
			t.Fatalf("Drive: %v", err)
		}
	}
	sys := newSystem(t)
	drive(t, sys)
	want := statsOf(sys.Stats())

	for _, tc := range []struct{ name, plan string }{
		{"wire", ""}, // the serialization path alone must already match
		{"latency", "latency(p=0.15,min=0s,max=2ms)"},
		{"reset", "reset(p=0.08)"},
		{"blackhole", "blackhole(p=0.05,stall=10ms)"},
		{"truncate", "truncate(p=0.08)"},
		{"corrupt", "corrupt(p=0.08,bits=3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			var lnUse net.Listener = ln
			var faulted *faultnet.Listener
			if tc.plan != "" {
				plan := faultnet.MustParsePlan(tc.plan)
				plan.Seed = seed ^ 0xfa17
				faulted = faultnet.WrapListener(ln, plan)
				lnUse = faulted
			}
			gw, err := netserve.New(newSystem(t), lnUse, netserve.Config{})
			if err != nil {
				ln.Close()
				t.Fatalf("netserve.New: %v", err)
			}
			defer gw.Close()
			c, err := Dial(ln.Addr().String(), Config{
				Conns: 1, Timeout: 2 * time.Second, Retries: 512,
				BackoffBase: time.Millisecond, MaxRetryWait: 10 * time.Millisecond,
				Seed: seed,
			})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			drive(t, c)
			gaveUp := c.GaveUp()
			c.Close()
			if err := gw.Close(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			var accepted uint64
			for _, ep := range gw.WireStats() {
				accepted += ep.Accepted
				if ep.Accepted != ep.Completed {
					t.Errorf("drain ledger: %s accepted %d != completed %d", ep.Endpoint, ep.Accepted, ep.Completed)
				}
			}
			if gaveUp != 0 || accepted+gaveUp != requests {
				t.Errorf("ledger: accepted %d + gaveUp %d, want %d + 0", accepted, gaveUp, requests)
			}
			if got := statsOf(gw.Stats()); got != want {
				t.Errorf("virtual stats diverged from the in-process drive:\ngot  %+v\nwant %+v", got, want)
			}
			if faulted != nil && faulted.FaultsTotal() == 0 {
				t.Errorf("plan %q never fired", tc.plan)
			}
		})
	}
}

// driveStats is the virtual-time slice of core.Stats. Wall-clock fields
// (QPS, Elapsed) and the wire ledger are left out: faults cost real time by
// design.
type driveStats struct {
	Served                 uint64
	P50, P99, Mean         float64
	Violations, TrainSteps uint64
	FullSyncs              uint64
	VirtualTime            float64
	InferHit, TrainHit     float64
}

func statsOf(st core.Stats) driveStats {
	return driveStats{
		Served:      st.Served,
		P50:         st.P50,
		P99:         st.P99,
		Mean:        st.MeanLatency,
		Violations:  st.Violations,
		TrainSteps:  st.TrainSteps,
		FullSyncs:   st.FullSyncs,
		VirtualTime: st.VirtualTime,
		InferHit:    st.InferenceHitRatio,
		TrainHit:    st.TrainingHitRatio,
	}
}
