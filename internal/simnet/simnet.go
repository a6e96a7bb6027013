// Package simnet is the virtual timeline every simulated cost runs on: a
// deterministic, lock-free clock plus the link bandwidth the fleet's sync
// fabric uses. Transfers are priced by collective.Kind (fleet
// syncs) and update.CostModel (paper-scale updates); simulated time
// advances on a Clock and is never waited for.
package simnet

import (
	"fmt"
	"math"
	"sync/atomic"
)

// The fleet's links: a 100 GbE link's payload bandwidth in bytes per second
// and its one-hop latency in seconds. Fleet syncs and catch-up transfers are
// billed at this pair.
const (
	Gbps100        = 100e9 / 8
	LinkLatencySec = 0.001
)

// Clock is a virtual timeline measured in seconds. Reads and writes are
// lock-free and safe for concurrent use: a replica advances its own clock
// while fleet-level code (routing, sync triggering, merged stats) reads it
// from other goroutines. The value is stored as IEEE-754 bits in an atomic
// word; Advance is a CAS loop, so concurrent advances compose
// without lost updates.
type Clock struct {
	bits atomic.Uint64 // Float64bits of the current time
}

// NewClock returns a clock at t = 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return math.Float64frombits(c.bits.Load()) }

// Advance moves time forward by dt seconds. Negative dt panics: simulated
// time is monotone.
func (c *Clock) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simnet: clock cannot go backwards (dt=%v)", dt))
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + dt)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}
