package netclient

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"liveupdate/internal/cluster"
	"liveupdate/internal/core"
	"liveupdate/internal/driver"
	"liveupdate/internal/netserve"
	"liveupdate/internal/trace"
)

func smallProfile(t *testing.T) trace.Profile {
	t.Helper()
	p, err := trace.ProfileByName("criteo")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	p.NumTables = 4
	p.TableSize = 500
	p.NumDense = 8
	p.MultiHot = []int{1, 1, 1, 2}
	return p
}

// startGateway stands up a real System behind a loopback netserve gateway and
// returns the dial address.
func startGateway(t *testing.T, cfg netserve.Config) (string, *netserve.Gateway) {
	t.Helper()
	sys, err := core.New(core.DefaultOptions(smallProfile(t), 42))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	g, err := netserve.New(sys, ln, cfg)
	if err != nil {
		ln.Close()
		t.Fatalf("netserve.New: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return ln.Addr().String(), g
}

func TestDialHandshake(t *testing.T) {
	addr, _ := startGateway(t, netserve.Config{})
	c, err := Dial(addr, Config{Conns: 3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.Info().Protocol != 1 {
		t.Errorf("Protocol = %d, want 1", c.Info().Protocol)
	}
	if c.Info().Profile != "criteo" {
		t.Errorf("Profile = %q, want criteo", c.Info().Profile)
	}
	if c.NumShards() != 3 {
		t.Errorf("NumShards = %d, want the 3 configured lanes", c.NumShards())
	}
}

func TestDialRejectsBadConfigAndDeadServer(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Config{Conns: -1}); err == nil {
		t.Error("Dial accepted negative Conns")
	}
	if _, err := Dial("127.0.0.1:1", Config{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("Dial succeeded against a dead address")
	}
}

func TestServeOverTheWireMatchesInProcess(t *testing.T) {
	addr, g := startGateway(t, netserve.Config{})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	gen, err := trace.NewGenerator(smallProfile(t), 7)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for i := 0; i < 10; i++ {
		s := gen.Next()
		remote, err := c.Serve(s)
		if err != nil {
			t.Fatalf("remote Serve %d: %v", i, err)
		}
		if remote.Prob < 0 || remote.Prob > 1 {
			t.Fatalf("remote Serve %d: prob %v outside [0,1]", i, remote.Prob)
		}
		if remote.Latency <= 0 {
			t.Fatalf("remote Serve %d: non-positive latency %v", i, remote.Latency)
		}
	}
	if st := g.Stats(); st.Served != 10 {
		t.Fatalf("server served %d, want 10", st.Served)
	}
}

func TestServeShardBatchRoundTrip(t *testing.T) {
	addr, _ := startGateway(t, netserve.Config{})
	c, err := Dial(addr, Config{Conns: 2})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	gen, _ := trace.NewGenerator(smallProfile(t), 9)
	samples := make([]trace.Sample, 6)
	for i := range samples {
		samples[i] = gen.Next()
	}
	resps := make([]core.Response, len(samples))
	if err := c.ServeShardBatch(1, samples, resps); err != nil {
		t.Fatalf("ServeShardBatch: %v", err)
	}
	for i, r := range resps {
		if r.Prob <= 0 && r.Latency <= 0 {
			t.Fatalf("response %d empty: %+v", i, r)
		}
	}
	if err := c.ServeShardBatch(0, samples, make([]core.Response, 2)); err == nil {
		t.Error("ServeShardBatch accepted mismatched response slots")
	}
	if err := c.ServeShardBatch(0, nil, nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

func TestStatsRoundTripRestoresNaN(t *testing.T) {
	// A fresh cluster reports NaN quantiles; a remote Stats() must carry the
	// sentinel through JSON and restore it client-side.
	opts := core.DefaultOptions(smallProfile(t), 11)
	r, err := cluster.NewRouter(cluster.Hash)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	cl, err := cluster.New(cluster.Config{Base: opts, Replicas: 2, Router: r, SyncEvery: time.Second})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	g, err := netserve.New(cl, ln, netserve.Config{})
	if err != nil {
		t.Fatalf("netserve.New: %v", err)
	}
	defer g.Close()

	c, err := Dial(ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	st, err := c.FetchStats()
	if err != nil {
		t.Fatalf("FetchStats: %v", err)
	}
	if !math.IsNaN(st.P50) || !math.IsNaN(st.P99) {
		t.Fatalf("idle cluster quantiles %v/%v, want the NaN sentinel restored", st.P50, st.P99)
	}
	if len(st.Wire) == 0 {
		t.Fatal("remote stats missing the wire ledger")
	}
}

// TestDriveOverTheWire is the acceptance check: the concurrent load driver,
// batching enabled, drives a remote fleet through the client exactly as it
// would an in-process server. That every driven call rides the binary path,
// unbatched too, is the determinism matrix's (TestDeterminismMatrix at the
// repository root).
func TestDriveOverTheWire(t *testing.T) {
	addr, g := startGateway(t, netserve.Config{})
	c, err := Dial(addr, Config{Conns: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	gen, err := trace.NewGenerator(smallProfile(t), 21)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	const requests = 400
	rep, err := driver.Drive(context.Background(), c, gen.Next, driver.Config{
		Requests:  requests,
		Workers:   4,
		Seed:      21,
		BatchSize: 8,
	})
	if err != nil {
		t.Fatalf("Drive over the wire: %v", err)
	}
	if rep.Served != requests {
		t.Fatalf("Served = %d, want %d", rep.Served, requests)
	}
	if rep.Shards != 4 {
		t.Fatalf("driver saw %d shards, want the client's 4 lanes", rep.Shards)
	}
	if rep.Batches >= rep.Served {
		t.Fatalf("no coalescing happened: %d batches for %d requests", rep.Batches, rep.Served)
	}
	if st := g.Stats(); st.Served != requests {
		t.Fatalf("server served %d, want %d", st.Served, requests)
	}
	// Ample capacity: a clean drive should shed nothing.
	if c.Shed429() != 0 {
		t.Fatalf("client absorbed %d sheds with ample capacity", c.Shed429())
	}
}

// slowServer holds each request for a fixed wall delay, guaranteeing that a
// wide closed-loop client builds real concurrency against the gate — the
// actual serving stack is too fast for 12 lanes to ever overlap 3-deep.
type slowServer struct {
	delay  time.Duration
	served atomic.Uint64
}

func (s *slowServer) Serve(trace.Sample) (core.Response, error) {
	time.Sleep(s.delay)
	s.served.Add(1)
	return core.Response{Prob: 0.5, Latency: 0.001}, nil
}

func (s *slowServer) ServeBatch(samples []trace.Sample, resps []core.Response) error {
	for i := range samples {
		resps[i], _ = s.Serve(samples[i]) // never fails
	}
	return nil
}

func (s *slowServer) Stats() core.Stats {
	return core.Stats{Served: s.served.Load()}
}

// TestClientRetriesThrough429 drives a tiny-capacity gateway with far more
// client lanes than admission slots: the server must shed, and the client
// must absorb every 429 and still complete the drive.
func TestClientRetriesThrough429(t *testing.T) {
	inner := &slowServer{delay: 2 * time.Millisecond}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	g, err := netserve.New(inner, ln, netserve.Config{MaxInflight: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("netserve.New: %v", err)
	}
	defer g.Close()
	c, err := Dial(ln.Addr().String(), Config{Conns: 12, MaxRetryWait: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	gen, _ := trace.NewGenerator(smallProfile(t), 33)
	const requests = 200
	rep, err := driver.Drive(context.Background(), c, gen.Next, driver.Config{
		Requests: requests,
		Workers:  12,
		Seed:     33,
	})
	if err != nil {
		t.Fatalf("Drive through overload: %v", err)
	}
	if rep.Served != requests {
		t.Fatalf("Served = %d, want %d despite shedding", rep.Served, requests)
	}
	if c.Shed429() == 0 {
		t.Fatal("12 lanes against 2 slots shed nothing — admission gate inert?")
	}
	var shed uint64
	for _, ep := range g.WireStats() {
		shed += ep.Shed
	}
	if shed != c.Shed429() {
		t.Fatalf("server ledger says %d shed, client absorbed %d", shed, c.Shed429())
	}
	if c.RetryWait() <= 0 {
		t.Fatal("client retried without backing off")
	}
}

func TestShardOfIsDeterministic(t *testing.T) {
	addr, _ := startGateway(t, netserve.Config{})
	c, err := Dial(addr, Config{Conns: 4})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	s := trace.Sample{Sparse: [][]int32{{1, 2}, {3}}}
	want := c.ShardOf(s)
	for i := 0; i < 10; i++ {
		if got := c.ShardOf(s); got != want {
			t.Fatalf("ShardOf flapped: %d then %d", want, got)
		}
	}
	if want < 0 || want >= c.NumShards() {
		t.Fatalf("ShardOf = %d outside [0,%d)", want, c.NumShards())
	}
}
