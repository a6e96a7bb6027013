// Package numasim models the inference-node hardware that LiveUpdate's
// performance-isolation layer (paper §IV-D) manipulates: Core Complex Dies
// (CCDs) with private L3 caches, shared DRAM bandwidth with
// contention-induced latency inflation, the adaptive CCD-partitioning
// controller of Algorithm 2, the shadow-embedding-table reuse path, and a
// CPU power/utilization model (Figs 5, 10, 11, 16, 18).
//
// It substitutes for the paper's dual AMD EPYC 9684X testbed. Capacities and
// latencies are scaled to laptop-size workloads; the causal structure — hot
// embedding sets fit in a per-CCD L3, cross-workload co-location thrashes
// it, misses contend for DRAM bandwidth — is the paper's.
package numasim

import "fmt"

// blockKey identifies one cacheable block (an embedding row). An accessed
// key's halves are non-negative, since the index is a slot array over them;
// only a resident stream block carries streamSpace.
type blockKey struct {
	Space int32 // block namespace (e.g. table id)
	Row   int32
}

// streamSpace marks a resident node that no index entry points at: a
// write-once stream block (KindStream), installed and evicted but never
// looked up.
const streamSpace = -1

// maxBlocks is the most blocks one cache can hold: a slot stores node+1 in a
// uint16, with 0 meaning absent.
const maxBlocks = 1<<16 - 1

// lruNode is one resident block, linked into the recency list by slot number.
type lruNode struct {
	key        blockKey
	prev, next int32 // towards the most / least recently used; -1 at the ends
}

// l3Cache is an LRU cache over fixed-size blocks, modelling one CCD's
// private L3 at embedding-row granularity. The recency list is intrusive,
// over one preallocated array of capacity nodes: a miss reuses the evicted
// block's node (or takes the next unused one). Blocks are found through a
// direct slot index, slots[space][row] = node+1 (0 = absent), presized to
// the key space the cache was built for, so Access never allocates inside
// it; a key outside it grows that space's slice, doubling it at least.
type l3Cache struct {
	capacity   int // max resident blocks
	nodes      []lruNode
	head, tail int32      // most / least recently used node; -1 when empty
	slots      [][]uint16 // [space][row] → node+1; 0 = absent

	hits   uint64
	misses uint64
}

// newL3Cache builds a cache holding at most capacity blocks, its index
// presized to spaces × rows keys in one slab.
func newL3Cache(capacity, spaces, rows int) *l3Cache {
	if capacity <= 0 || capacity > maxBlocks {
		panic(fmt.Sprintf("numasim: cache capacity %d out of [1,%d]", capacity, maxBlocks))
	}
	c := &l3Cache{
		capacity: capacity,
		nodes:    make([]lruNode, 0, capacity),
		head:     -1,
		tail:     -1,
		slots:    make([][]uint16, spaces),
	}
	slab := make([]uint16, spaces*rows)
	for s := range c.slots {
		c.slots[s] = slab[s*rows : (s+1)*rows : (s+1)*rows]
	}
	return c
}

// grow extends the index to cover a key outside it and returns the key's
// cell. A negative key panics: no block lives there.
func (c *l3Cache) grow(key blockKey) *uint16 {
	s, r := int(key.Space), int(key.Row)
	if s < 0 || r < 0 {
		panic(fmt.Sprintf("numasim: negative block key (space %d, row %d)", s, r))
	}
	if s >= len(c.slots) {
		c.slots = append(c.slots, make([][]uint16, s+1-len(c.slots))...)
	}
	if old := c.slots[s]; r >= len(old) {
		grown := make([]uint16, max(r+1, 2*len(old)))
		copy(grown, old)
		c.slots[s] = grown
	}
	return &c.slots[s][r]
}

// unlink takes node n out of the recency list.
func (c *l3Cache) unlink(n int32) {
	prev, next := c.nodes[n].prev, c.nodes[n].next
	if prev >= 0 {
		c.nodes[prev].next = next
	} else {
		c.head = next
	}
	if next >= 0 {
		c.nodes[next].prev = prev
	} else {
		c.tail = prev
	}
}

// pushFront makes node n the most recently used.
func (c *l3Cache) pushFront(n int32) {
	c.nodes[n].prev, c.nodes[n].next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

// access touches key, returning true on a hit. Misses install the block,
// evicting the least recently used one if full.
func (c *l3Cache) access(key blockKey) bool {
	var slot *uint16 // as uint, a negative half lies past any length
	if s, r := uint(key.Space), uint(key.Row); s < uint(len(c.slots)) && r < uint(len(c.slots[s])) {
		slot = &c.slots[s][r]
	} else {
		slot = c.grow(key)
	}
	if s := *slot; s != 0 {
		n := int32(s - 1)
		if n != c.head {
			c.unlink(n)
			c.pushFront(n)
		}
		c.hits++
		return true
	}
	n := c.install(key)
	*slot = uint16(n + 1)
	return false
}

// stream installs a write-once block: always a miss, put at the front of
// the recency list with no index entry, so it only ages out.
func (c *l3Cache) stream() {
	c.install(blockKey{Space: streamSpace})
}

// install counts a miss and takes a node for key at the front of the
// recency list: the next unused one, or the evicted tail's, whose slot it
// clears.
func (c *l3Cache) install(key blockKey) int32 {
	c.misses++
	var n int32
	if len(c.nodes) < c.capacity {
		n = int32(len(c.nodes))
		c.nodes = c.nodes[:n+1]
	} else {
		n = c.tail
		if old := c.nodes[n].key; old.Space != streamSpace {
			c.slots[old.Space][old.Row] = 0
		}
		c.unlink(n)
	}
	c.nodes[n].key = key
	c.pushFront(n)
	return n
}

// resetStats zeroes hit/miss counters without flushing contents.
func (c *l3Cache) resetStats() { c.hits, c.misses = 0, 0 }

// flush empties the cache (e.g. when a CCD is reassigned to a different
// workload, its working set is effectively cold), clearing only the
// resident blocks' slots.
func (c *l3Cache) flush() {
	for _, nd := range c.nodes {
		if nd.key.Space != streamSpace {
			c.slots[nd.key.Space][nd.key.Row] = 0
		}
	}
	c.nodes = c.nodes[:0]
	c.head, c.tail = -1, -1
}
