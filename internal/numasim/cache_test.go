package numasim

import (
	"container/list"
	"testing"

	"liveupdate/internal/tensor"
)

// listCache is the L3 model as it was written first — container/list plus a
// map of elements — kept as the oracle for the intrusive LRU.
type listCache struct {
	capacity int
	ll       *list.List
	index    map[BlockKey]*list.Element
}

func (c *listCache) access(key BlockKey) bool {
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		delete(c.index, back.Value.(BlockKey))
		c.ll.Remove(back)
	}
	c.index[key] = c.ll.PushFront(key)
	return false
}

func (c *listCache) flush() {
	c.ll.Init()
	c.index = make(map[BlockKey]*list.Element)
}

// The intrusive LRU hits, misses and evicts exactly where the list version
// does, access for access, over random key streams with flushes — so every
// virtual-time statistic built on the machine model holds.
func TestL3CacheMatchesListLRU(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := tensor.NewRNG(seed)
		capacity := 1 + rng.Intn(48)
		keys := 1 + rng.Intn(4*capacity) // from all-hits to mostly misses
		c := NewL3Cache(capacity)
		ref := &listCache{capacity: capacity, ll: list.New(), index: map[BlockKey]*list.Element{}}
		var hits, misses uint64
		for i := 0; i < 20000; i++ {
			if rng.Intn(2000) == 0 {
				c.Flush()
				ref.flush()
			}
			key := BlockKey{Space: int32(rng.Intn(3)) - 1, Row: int32(rng.Intn(keys))}
			if rng.Intn(8) == 0 { // a re-reference of something recent
				key.Row = int32(rng.Intn(1 + keys/8))
			}
			got, want := c.Access(key), ref.access(key)
			if got != want {
				t.Fatalf("seed %d access %d of %+v: hit=%v, list LRU says %v", seed, i, key, got, want)
			}
			if got {
				hits++
			} else {
				misses++
			}
			if c.Len() != ref.ll.Len() {
				t.Fatalf("seed %d access %d: %d resident, list LRU holds %d", seed, i, c.Len(), ref.ll.Len())
			}
		}
		// Same residents in the same recency order.
		n := c.head
		for el := ref.ll.Front(); el != nil; el = el.Next() {
			if n < 0 || c.nodes[n].key != el.Value.(BlockKey) || !c.Contains(c.nodes[n].key) {
				t.Fatalf("seed %d: recency order diverged from the list LRU", seed)
			}
			n = c.nodes[n].next
		}
		if h, m := c.Stats(); n != -1 || h != hits || m != misses {
			t.Fatalf("seed %d: list tail %d, counters %d/%d want %d/%d", seed, n, h, m, hits, misses)
		}
	}
}

// A miss reuses the evicted block's node: no allocation per access, however
// the stream misses. (The list version paid two per miss.)
func TestL3CacheAccessAllocs(t *testing.T) {
	c := NewL3Cache(256)
	row := int32(0)
	for i := 0; i < 1024; i++ { // fill, then churn: the map has seen its working set
		c.Access(BlockKey{Row: int32(i)})
	}
	n := testing.AllocsPerRun(5000, func() {
		row = (row + 1) % 4096 // a cyclic scan over 16× the capacity: every access misses
		c.Access(BlockKey{Space: 1, Row: row})
	})
	if _, misses := c.Stats(); n != 0 || misses < 4000 {
		t.Fatalf("Access allocates %v times per call over %d misses, want 0", n, misses)
	}
}
