package netserve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	if cfg.MaxConns != defaultMaxConns {
		t.Errorf("MaxConns = %d, want %d", cfg.MaxConns, defaultMaxConns)
	}
	if cfg.MaxInflight <= 0 {
		t.Errorf("MaxInflight = %d, want > 0", cfg.MaxInflight)
	}
	if cfg.QueueDepth != defaultQueueDepth {
		t.Errorf("QueueDepth = %d, want %d", cfg.QueueDepth, defaultQueueDepth)
	}
	if cfg.SLABudget != 0 {
		t.Errorf("SLABudget = %v, want 0 (disabled)", cfg.SLABudget)
	}
}

func TestConfigRejectsNegatives(t *testing.T) {
	bad := []Config{
		{MaxConns: -1},
		{MaxInflight: -1},
		{QueueDepth: -1},
		{SLABudget: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("withDefaults(%+v) accepted a negative field", cfg)
		}
	}
}

// waitQueued polls until the gate holds exactly n waiters.
func waitQueued(t *testing.T, g *gate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, queued := g.occupancy(); queued == n {
			return
		}
		if time.Now().After(deadline) {
			_, queued := g.occupancy()
			t.Fatalf("timed out waiting for %d queued, have %d", n, queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGateFIFOOrder parks waiters one at a time behind a full gate and
// verifies they are admitted strictly in arrival order: accepted requests are
// never reordered.
func TestGateFIFOOrder(t *testing.T) {
	cfg, _ := Config{MaxInflight: 1, QueueDepth: 8}.withDefaults()
	g := newGate(cfg)

	if retry, reason := g.enter(nil, nil); reason != "" {
		t.Fatalf("first enter shed (%s, retry %v) on an empty gate", reason, retry)
	}

	const waiters = 8
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		// Sequence arrivals: each goroutine must be parked before the next
		// starts, so arrival order is known exactly.
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, reason := g.enter(nil, nil); reason != "" {
				t.Errorf("waiter %d shed (%s) with queue room", id, reason)
				return
			}
			order <- id
			g.leave(time.Millisecond)
		}(i)
		waitQueued(t, g, i+1)
	}

	g.leave(time.Millisecond) // release the initial slot; cascade begins
	wg.Wait()
	close(order)

	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("FIFO violated: admitted waiter %d before waiter %d", got, want)
		}
		want++
	}
	if want != waiters {
		t.Fatalf("only %d of %d waiters admitted", want, waiters)
	}
}

// TestGateShedsNewestOnOverflow fills the queue and verifies the overflowing
// arrival — and only it — is shed, while every already-queued request is
// still served in order.
func TestGateShedsNewestOnOverflow(t *testing.T) {
	cfg, _ := Config{MaxInflight: 1, QueueDepth: 3}.withDefaults()
	g := newGate(cfg)

	if _, reason := g.enter(nil, nil); reason != "" {
		t.Fatalf("initial enter shed: %s", reason)
	}
	order := make(chan int, cfg.QueueDepth)
	var wg sync.WaitGroup
	for i := 0; i < cfg.QueueDepth; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, reason := g.enter(nil, nil); reason != "" {
				t.Errorf("queued waiter %d shed: %s", id, reason)
				return
			}
			order <- id
			g.leave(time.Millisecond)
		}(i)
		waitQueued(t, g, i+1)
	}

	// The queue is full: the next arrival must be shed, with a positive
	// back-off hint, without disturbing the parked waiters.
	retry, reason := g.enter(nil, nil)
	if reason != shedQueueFull {
		t.Fatalf("overflow arrival: reason = %q, want %q", reason, shedQueueFull)
	}
	if retry <= 0 {
		t.Errorf("overflow arrival: retry = %v, want > 0", retry)
	}
	if _, queued := g.occupancy(); queued != cfg.QueueDepth {
		t.Errorf("shed disturbed the queue: %d waiters, want %d", queued, cfg.QueueDepth)
	}

	g.leave(time.Millisecond)
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("shed reordered survivors: admitted %d before %d", got, want)
		}
		want++
	}
}

// TestGateSLABudgetShedding seeds the service-time EWMA and verifies an
// arrival whose predicted wait blows the budget is shed even though the queue
// has room.
func TestGateSLABudgetShedding(t *testing.T) {
	cfg, _ := Config{MaxInflight: 1, QueueDepth: 64, SLABudget: time.Millisecond}.withDefaults()
	g := newGate(cfg)

	// Teach the gate that a request takes ~100ms.
	for i := 0; i < 32; i++ {
		if _, reason := g.enter(nil, nil); reason != "" {
			t.Fatalf("warm-up enter %d shed: %s", i, reason)
		}
		g.leave(100 * time.Millisecond)
	}

	// Occupy the single slot so the next arrival must queue — and its
	// predicted wait (~1 × 100ms) dwarfs the 1ms budget.
	if _, reason := g.enter(nil, nil); reason != "" {
		t.Fatalf("occupying enter shed: %s", reason)
	}
	retry, reason := g.enter(nil, nil)
	if reason != shedSLABudget {
		t.Fatalf("over-budget arrival: reason = %q, want %q", reason, shedSLABudget)
	}
	if retry < 10*time.Millisecond {
		t.Errorf("retry hint %v does not reflect the ~100ms service EWMA", retry)
	}
	g.leave(100 * time.Millisecond)
}

// TestGateQueueCallbacksBracketStay verifies onQueued/onDequeued fire exactly
// once per queued request and not at all for immediate admissions.
func TestGateQueueCallbacksBracketStay(t *testing.T) {
	cfg, _ := Config{MaxInflight: 1, QueueDepth: 4}.withDefaults()
	g := newGate(cfg)

	var mu sync.Mutex
	queued, dequeued := 0, 0
	onQ := func() { mu.Lock(); queued++; mu.Unlock() }
	onD := func() { mu.Lock(); dequeued++; mu.Unlock() }

	if _, reason := g.enter(onQ, onD); reason != "" {
		t.Fatalf("immediate enter shed: %s", reason)
	}
	if queued != 0 || dequeued != 0 {
		t.Fatalf("immediate admission touched queue callbacks: queued=%d dequeued=%d", queued, dequeued)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, reason := g.enter(onQ, onD); reason != "" {
			t.Errorf("parked enter shed: %s", reason)
			return
		}
		g.leave(time.Millisecond)
	}()
	waitQueued(t, g, 1)
	g.leave(time.Millisecond)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if queued != 1 || dequeued != 1 {
		t.Fatalf("queued stay: callbacks queued=%d dequeued=%d, want 1/1", queued, dequeued)
	}
}

func TestRetryAfterFloor(t *testing.T) {
	cfg, _ := Config{MaxInflight: 1, QueueDepth: 1}.withDefaults()
	g := newGate(cfg)
	// Cold gate: no EWMA yet, so the estimate is zero — the hint must still
	// be at least a millisecond to spread client retries out.
	g.mu.Lock()
	d := g.retryAfterLocked(1)
	g.mu.Unlock()
	if d < time.Millisecond {
		t.Fatalf("cold retry hint %v below 1ms floor", d)
	}
}

func TestGateConcurrentStress(t *testing.T) {
	cfg, _ := Config{MaxInflight: 4, QueueDepth: 16}.withDefaults()
	g := newGate(cfg)

	const clients = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, shed := 0, 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, reason := g.enter(nil, nil); reason != "" {
					mu.Lock()
					shed++
					mu.Unlock()
					continue
				}
				mu.Lock()
				admitted++
				mu.Unlock()
				g.leave(10 * time.Microsecond)
			}
		}()
	}
	wg.Wait()

	inflight, queued := g.occupancy()
	if inflight != 0 || queued != 0 {
		t.Fatalf("gate leaked: inflight=%d queued=%d after drain", inflight, queued)
	}
	if admitted+shed != clients*50 {
		t.Fatalf("accounting: admitted %d + shed %d != %d", admitted, shed, clients*50)
	}
	if admitted == 0 {
		t.Fatal("stress admitted nothing")
	}
}

func ExampleConfig() {
	cfg, _ := Config{MaxInflight: 2, QueueDepth: 4}.withDefaults()
	fmt.Println(cfg.MaxConns, cfg.MaxInflight, cfg.QueueDepth)
	// Output: 256 2 4
}
