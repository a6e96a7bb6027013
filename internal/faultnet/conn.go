package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"liveupdate/internal/tensor"
)

// faultCounters tallies injected faults by class. Safe for concurrent use.
type faultCounters struct {
	counts [numClasses]atomic.Uint64
}

// total returns the number of faults injected across all classes.
func (c *faultCounters) total() uint64 {
	var total uint64
	for i := range c.counts {
		total += c.counts[i].Load()
	}
	return total
}

func (c *faultCounters) hit(class Class) { c.counts[class].Add(1) }

// Listener wraps an accept loop so every accepted connection carries a
// deterministic fault-injecting faultConn. The n-th accepted connection's RNG is
// seeded from (plan.Seed, n), so a run is replayable from the plan seed.
type Listener struct {
	net.Listener
	plan     Plan
	seq      atomic.Uint64
	counters faultCounters
}

// WrapListener wraps ln with the plan. A disabled plan (no clauses) returns
// a Listener that injects nothing but still serves counters (all zero).
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

// Accept waits for the next connection and wraps it for fault injection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.plan.Enabled() {
		return c, err
	}
	n := l.seq.Add(1) - 1
	return wrapConn(c, l.plan, n, &l.counters), nil
}

// FaultsTotal returns the number of faults injected so far across every
// connection this listener accepted. netserve discovers this via a local
// interface assertion to publish liveupdate_wire_faults_total.
func (l *Listener) FaultsTotal() uint64 { return l.counters.total() }

// connSeed mixes the plan seed with a connection serial number via the
// SplitMix64 finalizer, so adjacent connections get decorrelated streams.
func connSeed(seed, serial uint64) uint64 {
	z := seed + serial*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// faultConn injects faults into the read (inbound) half of a wrapped connection.
// Writes pass through untouched — see the package comment for why the
// listener side never faults outbound responses.
type faultConn struct {
	net.Conn

	mu   sync.Mutex // guards rng and dead; reads are serialized by net/http anyway
	rng  *tensor.RNG
	plan Plan
	ctrs *faultCounters
	dead *injectedError // sticky: once a fault kills the conn, every read fails the same way
}

// wrapConn wraps c with the plan, using serial to derive the connection's
// private RNG stream. The counters may be shared across connections; it must be
// non-nil.
func wrapConn(c net.Conn, plan Plan, serial uint64, ctrs *faultCounters) *faultConn {
	return &faultConn{
		Conn: c,
		rng:  tensor.NewRNG(connSeed(plan.Seed, serial)),
		plan: plan,
		ctrs: ctrs,
	}
}

// Read performs the underlying read first and rolls the plan's clauses only
// when it delivered data, applying at most one fault to the delivered bytes.
//
// Rolling after (not before) the read is load-bearing: net/http servers run
// a background read on the connection while a handler executes, purely to
// detect client disconnects. That read always ends empty (aborted via a read
// deadline before the response is written), so by rolling only on
// data-delivering reads every fault lands on actual inbound request bytes —
// a fault can delay, cut, or damage a request on its way in, but can never
// kill a connection between a completed serve and its response. That is what
// guarantees faults force retries without ever duplicating a served request.
func (c *faultConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		return 0, err
	}
	c.mu.Unlock()
	n, rerr := c.Conn.Read(b)
	if n <= 0 {
		return n, rerr
	}
	c.mu.Lock()
	if c.dead != nil { // killed while we were blocked in the read
		err := c.dead
		c.mu.Unlock()
		return 0, err
	}
	var fault *fault
	for i := range c.plan.Faults {
		if c.rng.Float64() < c.plan.Faults[i].P {
			fault = &c.plan.Faults[i]
			break
		}
	}
	if fault == nil {
		c.mu.Unlock()
		return n, rerr
	}
	c.ctrs.hit(fault.Class)
	switch fault.Class {
	case faultLatency:
		// Deliver the bytes late.
		var d time.Duration
		if span := fault.Max - fault.Min; span > 0 {
			d = fault.Min + time.Duration(c.rng.Uint64()%uint64(span+1))
		} else {
			d = fault.Min
		}
		c.mu.Unlock()
		time.Sleep(d)
		return n, rerr

	case faultReset:
		// Drop the delivered bytes and kill the transport: the request they
		// belonged to can never complete, so it is retried, never duplicated.
		err := c.killLocked(faultReset)
		c.mu.Unlock()
		return 0, err

	case faultBlackhole:
		err := &injectedError{Class: faultBlackhole}
		c.dead = err
		stall := fault.Stall
		c.mu.Unlock()
		// Hang the reader for the stall, then kill the transport — the peer
		// that answers nothing. Closing unblocks any concurrent writer too,
		// so a stalled request can never be delivered late.
		time.Sleep(stall)
		c.Conn.Close()
		return 0, err

	case faultTruncate:
		// Deliver a prefix of what arrived, then cut the stream.
		keep := fault.Bytes
		if keep <= 0 || keep >= n {
			keep = n / 2
		}
		err := c.killLocked(faultTruncate)
		c.mu.Unlock()
		if keep <= 0 {
			return 0, err
		}
		return keep, err

	case faultCorrupt:
		for i := 0; i < fault.Bits; i++ {
			pos := c.rng.Intn(n * 8)
			b[pos/8] ^= 1 << uint(pos%8)
		}
		c.mu.Unlock()
		return n, rerr
	}
	c.mu.Unlock()
	return n, rerr
}

// killLocked marks the connection dead with a sticky injected error and
// closes the transport. Caller holds c.mu.
func (c *faultConn) killLocked(class Class) *injectedError {
	err := &injectedError{Class: class}
	c.dead = err
	c.Conn.Close()
	return err
}
