package metrics

import "sync/atomic"

// Concurrency-safe counters for hot statistics paths. A serving fleet driven
// by many client goroutines counts completed events on every request;
// funneling those through one mutex would serialize the very parallelism the
// fleet exists to provide. The Tracer's per-stage samplers, which every
// worker hits on every request, use cache-line-padded slots (tracer.go).

// Counter is a monotone counter: the hot path is one atomic add, so any
// number of writers may share it. A nil *Counter (telemetry off) no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// load returns the current value (0 on nil).
func (c *Counter) load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
