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

// BlockKey identifies one cacheable block (an embedding row).
type BlockKey struct {
	Space int32 // block namespace (e.g. table id)
	Row   int32
}

// packed is the key as the index stores it: one word, so the map hashes it
// on its integer fast path.
func (k BlockKey) packed() uint64 { return uint64(uint32(k.Space))<<32 | uint64(uint32(k.Row)) }

// lruNode is one resident block, linked into the recency list by slot number.
type lruNode struct {
	key        BlockKey
	prev, next int32 // towards the most / least recently used; -1 at the ends
}

// L3Cache is an LRU cache over fixed-size blocks, modelling one CCD's
// private L3 at embedding-row granularity. The recency list is intrusive,
// over one preallocated array of capacity nodes: a miss reuses the evicted
// block's node (or takes the next unused one), so Access never allocates once
// the index map has seen capacity keys.
type L3Cache struct {
	capacity   int // max resident blocks
	nodes      []lruNode
	head, tail int32            // most / least recently used node; -1 when empty
	index      map[uint64]int32 // packed key → node

	hits   uint64
	misses uint64
}

// NewL3Cache builds a cache holding at most capacity blocks.
func NewL3Cache(capacity int) *L3Cache {
	if capacity <= 0 {
		panic("numasim: cache capacity must be positive")
	}
	return &L3Cache{
		capacity: capacity,
		nodes:    make([]lruNode, 0, capacity),
		head:     -1,
		tail:     -1,
		index:    make(map[uint64]int32, capacity),
	}
}

// unlink takes node n out of the recency list.
func (c *L3Cache) unlink(n int32) {
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
func (c *L3Cache) pushFront(n int32) {
	c.nodes[n].prev, c.nodes[n].next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = n
	} else {
		c.tail = n
	}
	c.head = n
}

// Access touches key, returning true on a hit. Misses install the block,
// evicting the least recently used one if full.
func (c *L3Cache) Access(key BlockKey) bool {
	k := key.packed()
	if n, ok := c.index[k]; ok {
		if n != c.head {
			c.unlink(n)
			c.pushFront(n)
		}
		c.hits++
		return true
	}
	c.misses++
	var n int32
	if len(c.nodes) < c.capacity {
		n = int32(len(c.nodes))
		c.nodes = c.nodes[:n+1]
	} else {
		n = c.tail
		delete(c.index, c.nodes[n].key.packed())
		c.unlink(n)
	}
	c.nodes[n].key = key
	c.pushFront(n)
	c.index[k] = n
	return false
}

// Contains reports residency without touching LRU order or counters.
func (c *L3Cache) Contains(key BlockKey) bool {
	_, ok := c.index[key.packed()]
	return ok
}

// Len returns the number of resident blocks.
func (c *L3Cache) Len() int { return len(c.nodes) }

// Capacity returns the maximum resident blocks.
func (c *L3Cache) Capacity() int { return c.capacity }

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (c *L3Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// ResetStats zeroes hit/miss counters without flushing contents.
func (c *L3Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Flush empties the cache (e.g. when a CCD is reassigned to a different
// workload, its working set is effectively cold).
func (c *L3Cache) Flush() {
	c.nodes = c.nodes[:0]
	c.head, c.tail = -1, -1
	clear(c.index)
}

// Stats returns raw hit/miss counts.
func (c *L3Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }
