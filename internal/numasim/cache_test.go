package numasim

import (
	"container/list"
	"strings"
	"testing"

	"liveupdate/internal/tensor"
)

// listCache is the L3 model as it was written first — container/list plus a
// map of elements — kept as the oracle for the intrusive LRU and its slot
// index.
type listCache struct {
	capacity int
	ll       *list.List
	index    map[blockKey]*list.Element
}

func newListCache(capacity int) *listCache {
	return &listCache{capacity: capacity, ll: list.New(), index: map[blockKey]*list.Element{}}
}

func (c *listCache) access(key blockKey) bool {
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		delete(c.index, back.Value.(blockKey))
		c.ll.Remove(back)
	}
	c.index[key] = c.ll.PushFront(key)
	return false
}

func (c *listCache) flush() {
	c.ll.Init()
	c.index = make(map[blockKey]*list.Element)
}

// sameAsList reports how c differs from the oracle ref, or "" when they hold
// the same residents in the same recency order and c's index points at
// exactly its indexed residents. A stream block matches any oracle key in
// streamSpace (the oracle numbers them to keep them distinct).
func sameAsList(c *l3Cache, ref *listCache) string {
	n := c.head
	for el := ref.ll.Front(); el != nil; el = el.Next() {
		want := el.Value.(blockKey)
		switch {
		case n < 0:
			return "resident list shorter than the list LRU's"
		case want.Space == streamSpace && c.nodes[n].key.Space != streamSpace,
			want.Space != streamSpace && (c.nodes[n].key != want || !contains(c, want)):
			return "recency order diverged from the list LRU"
		}
		n = c.nodes[n].next
	}
	if n != -1 {
		return "resident list longer than the list LRU's"
	}
	indexed := 0
	for _, nd := range c.nodes {
		if nd.key.Space != streamSpace {
			indexed++
		}
	}
	set := 0
	for _, row := range c.slots {
		for _, v := range row {
			if v != 0 {
				set++
			}
		}
	}
	if set != indexed {
		return "slot index holds stale entries"
	}
	return ""
}

// The intrusive LRU hits, misses and evicts exactly where the list version
// does, access for access, over random key streams with flushes — so every
// virtual-time statistic built on the machine model holds. The index is
// presized to half the keys, so accesses land both inside it and in its
// grown part.
func TestL3CacheMatchesListLRU(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := tensor.NewRNG(seed)
		capacity := 1 + rng.Intn(48)
		keys := 1 + rng.Intn(4*capacity) // from all-hits to mostly misses
		c := newL3Cache(capacity, 2, keys/2)
		ref := newListCache(capacity)
		var hits, misses uint64
		for i := 0; i < 20000; i++ {
			if rng.Intn(2000) == 0 {
				c.flush()
				ref.flush()
			}
			key := blockKey{Space: int32(rng.Intn(3)), Row: int32(rng.Intn(keys))}
			if rng.Intn(8) == 0 { // a re-reference of something recent
				key.Row = int32(rng.Intn(1 + keys/8))
			}
			got, want := c.access(key), ref.access(key)
			if got != want {
				t.Fatalf("seed %d access %d of %+v: hit=%v, list LRU says %v", seed, i, key, got, want)
			}
			if got {
				hits++
			} else {
				misses++
			}
			if len(c.nodes) != ref.ll.Len() {
				t.Fatalf("seed %d access %d: %d resident, list LRU holds %d", seed, i, len(c.nodes), ref.ll.Len())
			}
		}
		if d := sameAsList(c, ref); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		if h, m := c.hits, c.misses; h != hits || m != misses {
			t.Fatalf("seed %d: counters %d/%d want %d/%d", seed, h, m, hits, misses)
		}
	}
}

// A negative key has no slot: it panics with a message naming it rather
// than corrupting the index.
func TestL3CacheNegativeKeyPanics(t *testing.T) {
	for _, key := range []blockKey{{Space: -1, Row: 0}, {Space: 0, Row: -1}, {Space: -3, Row: -7}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "negative block key") {
					t.Fatalf("access of %+v: recovered %q, want a negative-key panic", key, msg)
				}
			}()
			newL3Cache(4, 2, 8).access(key)
		}()
	}
}

// A miss reuses the evicted block's node and a presized index never grows:
// no allocation per access, however the stream misses. (The list version
// paid two per miss.)
func TestL3CacheAccessAllocs(t *testing.T) {
	c := newL3Cache(256, 2, 4096)
	row := int32(0)
	n := testing.AllocsPerRun(5000, func() {
		row = (row + 1) % 4096 // a cyclic scan over 16× the capacity: every access misses
		c.access(blockKey{Space: 1, Row: row})
		c.stream()
	})
	if misses := c.misses; n != 0 || misses < 8000 {
		t.Fatalf("Access allocates %v times per call over %d misses, want 0", n, misses)
	}
}

// FuzzL3Cache drives the slot-indexed cache and the list oracle with one op
// stream and requires the same hit/miss answer at every access, the same
// resident count after every op, and the same recency order and a clean
// index at the end. The first byte picks the capacity; the rest are
// (op, arg) pairs: a cached access inside or outside the presized 2 × 8 key
// space, a stream install, or a flush. Inputs past 129 bytes are skipped:
// every bug this hunts shows within a few dozen ops, and long inputs stall
// the fuzzer's minimizer.
func FuzzL3Cache(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 0, 1})
	f.Add([]byte{3, 6, 0, 0, 5, 8, 7, 0, 0, 5, 6, 0, 16, 20})
	f.Add([]byte{1, 0, 0, 7, 0, 0, 0, 16, 9, 16, 9, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 129 {
			return
		}
		capacity := 1 + int(ops[0]%16)
		c := newL3Cache(capacity, 2, 8)
		ref := newListCache(capacity)
		var streams int32
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 8 {
			case 6:
				c.stream()
				streams++
				ref.access(blockKey{Space: streamSpace, Row: streams})
			case 7:
				c.flush()
				ref.flush()
			default:
				key := blockKey{Space: int32(op>>3) % 4, Row: int32(arg % 24)}
				if got, want := c.access(key), ref.access(key); got != want {
					t.Fatalf("op %d, access %+v: hit=%v, list LRU says %v", i, key, got, want)
				}
			}
			if len(c.nodes) != ref.ll.Len() {
				t.Fatalf("op %d: %d resident, list LRU holds %d", i, len(c.nodes), ref.ll.Len())
			}
		}
		if d := sameAsList(c, ref); d != "" {
			t.Fatal(d)
		}
	})
}
