package metrics

import (
	"fmt"
	"sync/atomic"
)

// Concurrency-safe counters for hot statistics paths. A serving fleet driven
// by many client goroutines increments Served/Violations-style counters on
// every request; funneling those through one mutex would serialize the very
// parallelism the fleet exists to provide. Counter is a single atomic word
// for counters with one or few writers; ShardedCounter spreads writers
// across cache-line-padded slots (one per worker) so concurrent increments
// never contend, at the cost of a summing read.

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

// counterSlot pads each shard's word to its own cache line (64 bytes) so
// concurrent writers on different shards never false-share.
type counterSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a write-optimized counter split across per-writer slots.
// Each writer owns one shard index (e.g. its worker id) and increments it
// without ever touching another writer's cache line; Load sums the slots.
// Reads are O(shards) and monotone but not linearizable with respect to
// in-flight writes — exactly the trade a throughput counter wants.
type ShardedCounter struct {
	slots []counterSlot
}

// NewShardedCounter returns a counter with the given number of shards
// (typically the worker count). It panics if shards < 1.
func NewShardedCounter(shards int) *ShardedCounter {
	if shards < 1 {
		panic(fmt.Sprintf("metrics: ShardedCounter needs >= 1 shard, got %d", shards))
	}
	return &ShardedCounter{slots: make([]counterSlot, shards)}
}

// Shards returns the number of shards.
func (c *ShardedCounter) Shards() int { return len(c.slots) }

// Add adds n to the given shard. It panics on an out-of-range shard.
func (c *ShardedCounter) Add(shard int, n uint64) {
	c.slots[shard].v.Add(n)
}

// Load returns the sum across all shards.
func (c *ShardedCounter) Load() uint64 {
	var total uint64
	for i := range c.slots {
		total += c.slots[i].v.Load()
	}
	return total
}
