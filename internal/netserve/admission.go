package netserve

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"liveupdate/internal/metrics"
)

// Admission control for the wire front end: a connection limiter on the
// listener plus a FIFO admission queue in front of the serving path. A wire
// request is either admitted immediately (an inflight slot is free), parked
// in the bounded queue until one frees, or shed with 429 + Retry-After — the
// queue never grows unboundedly and accepted requests are never reordered:
// waiters are released strictly first-in-first-out, and overflow always
// rejects the arriving (newest) request, never one already admitted.

// Config is the wire front end's admission policy.
type Config struct {
	// MaxConns bounds simultaneously accepted TCP connections; further
	// Accepts block in the kernel backlog until one closes. 0 defaults to
	// defaultMaxConns; negative is invalid.
	MaxConns int

	// MaxInflight bounds wire requests being served concurrently. 0 defaults
	// to GOMAXPROCS (one serving request per processor); negative is invalid.
	MaxInflight int

	// QueueDepth bounds admitted requests waiting for an inflight slot. An
	// arrival that finds the queue full is shed with 429. 0 defaults to
	// defaultQueueDepth; negative is invalid.
	QueueDepth int

	// SLABudget, when positive, sheds an arrival whose predicted queueing
	// delay — its queue position times the observed mean service time —
	// already exceeds the budget, even if the queue has room: a request that
	// cannot possibly meet its latency target is cheaper to reject at the
	// door than to serve late. 0 disables budget shedding.
	SLABudget time.Duration

	// DrainTimeout bounds the graceful drain on Close: the gateway stops
	// accepting, finishes in-flight requests for up to this long, then force
	// closes whatever remains. 0 defaults to defaultDrainTimeout; negative
	// is invalid.
	DrainTimeout time.Duration

	// Telemetry attaches an observability surface to the gateway: the wire
	// admission ledger registers into its metrics registry, queue waits are
	// traced as spans, and the gateway exports GET /metrics, /debug/vars,
	// /trace (and, when Telemetry.Config().Pprof is set, /debug/pprof/).
	// Nil means a private registry-only Telemetry: the scrape endpoints
	// still answer, without stage tracing or pprof. The public API wires
	// this via liveupdate.WithTelemetry.
	Telemetry *metrics.Telemetry
}

// Admission defaults.
const (
	defaultMaxConns     = 256
	defaultQueueDepth   = 64
	defaultDrainTimeout = 5 * time.Second
)

// withDefaults resolves zero values and validates.
func (c Config) withDefaults() (Config, error) {
	switch {
	case c.MaxConns < 0:
		return c, fmt.Errorf("netserve: MaxConns must be non-negative, got %d", c.MaxConns)
	case c.MaxInflight < 0:
		return c, fmt.Errorf("netserve: MaxInflight must be non-negative, got %d", c.MaxInflight)
	case c.QueueDepth < 0:
		return c, fmt.Errorf("netserve: QueueDepth must be non-negative, got %d", c.QueueDepth)
	case c.SLABudget < 0:
		return c, fmt.Errorf("netserve: SLABudget must be non-negative, got %v", c.SLABudget)
	case c.DrainTimeout < 0:
		return c, fmt.Errorf("netserve: DrainTimeout must be non-negative, got %v", c.DrainTimeout)
	}
	if c.MaxConns == 0 {
		c.MaxConns = defaultMaxConns
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = defaultDrainTimeout
	}
	return c, nil
}

// shedReason says why an arrival was rejected.
type shedReason string

const (
	shedQueueFull shedReason = "queue-full"
	shedSLABudget shedReason = "sla-budget"
)

// gate is the admission queue. All serve endpoints share one gate: the
// bounded resource is the serving path, not any single URL.
type gate struct {
	mu          sync.Mutex
	maxInflight int
	queueDepth  int
	slaBudget   float64 // seconds; 0 = disabled

	inflight int
	waiters  []chan struct{} // FIFO; head is released first

	// ewmaServe is the exponentially weighted mean wall-clock service time
	// in seconds, fed by leave(). It drives the SLABudget predictor and the
	// Retry-After estimate.
	ewmaServe float64
}

func newGate(cfg Config) *gate {
	return &gate{
		maxInflight: cfg.MaxInflight,
		queueDepth:  cfg.QueueDepth,
		slaBudget:   cfg.SLABudget.Seconds(),
	}
}

// enter asks for an inflight slot. An empty reason means admitted — possibly
// after waiting in the FIFO queue; a non-empty reason means the request was
// shed and retry carries the suggested client back-off. onQueued/onDequeued,
// when non-nil, bracket a stay in the queue (onQueued runs under the gate
// lock); endpoints use them to maintain their queued gauge.
func (g *gate) enter(onQueued, onDequeued func()) (retry time.Duration, reason shedReason) {
	g.mu.Lock()
	if g.inflight < g.maxInflight {
		g.inflight++
		g.mu.Unlock()
		return 0, ""
	}
	position := len(g.waiters) + 1
	if len(g.waiters) >= g.queueDepth {
		retry = g.retryAfterLocked(position)
		g.mu.Unlock()
		return retry, shedQueueFull
	}
	if g.slaBudget > 0 && g.ewmaServe > 0 {
		if predicted := g.predictedWaitLocked(position); predicted > g.slaBudget {
			retry = g.retryAfterLocked(position)
			g.mu.Unlock()
			return retry, shedSLABudget
		}
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	if onQueued != nil {
		onQueued()
	}
	g.mu.Unlock()
	<-ch // leave() hands the slot over FIFO; inflight already accounted
	if onDequeued != nil {
		onDequeued()
	}
	return 0, ""
}

// leave releases a slot after a serve took elapsed wall time. If a waiter is
// parked, the slot transfers to the queue head (inflight count unchanged);
// otherwise the slot frees.
func (g *gate) leave(elapsed time.Duration) {
	g.mu.Lock()
	// EWMA with alpha 1/8: smooth enough to ride out one slow request,
	// fresh enough to track a load shift within tens of requests.
	s := elapsed.Seconds()
	if g.ewmaServe == 0 {
		g.ewmaServe = s
	} else {
		g.ewmaServe += (s - g.ewmaServe) / 8
	}
	if len(g.waiters) > 0 {
		head := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.mu.Unlock()
		close(head)
		return
	}
	g.inflight--
	g.mu.Unlock()
}

// predictedWaitLocked estimates the queueing delay of an arrival at the given
// queue position: position quanta of the mean service time, divided across
// the inflight lanes. Callers hold g.mu.
func (g *gate) predictedWaitLocked(position int) float64 {
	return float64(position) * g.ewmaServe / float64(g.maxInflight)
}

// retryAfterLocked suggests how long a shed client should back off: the time
// the current queue needs to drain, floored at one millisecond so a cold
// gate (no service history) still spreads retries out. Callers hold g.mu.
func (g *gate) retryAfterLocked(position int) time.Duration {
	d := time.Duration(g.predictedWaitLocked(position) * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// occupancy snapshots the live gauges.
func (g *gate) occupancy() (inflight, queued int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight, len(g.waiters)
}

// limitListener bounds simultaneously accepted connections with a semaphore,
// released when the accepted connection closes (once, even under double
// Close — net/http closes connections it hijacks or times out itself).
type limitListener struct {
	net.Listener
	sem chan struct{}
}

func newLimitListener(ln net.Listener, maxConns int) *limitListener {
	return &limitListener{Listener: ln, sem: make(chan struct{}, maxConns)}
}

func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, release: func() { <-l.sem }}, nil
}

type limitConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
