package simnet

import (
	"math"
	"sync"
	"testing"
)

func TestClockMonotone(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("clock must start at 0")
	}
	c.Advance(5)
	c.Advance(2.5)
	if c.Now() != 7.5 {
		t.Fatalf("now = %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance must panic")
		}
	}()
	c.Advance(-1)
}

// TestClockConcurrent exercises the lock-free clock: concurrent Advance
// calls must never lose an update (the fleet reads replica clocks while
// their owners advance them).
func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Advance(0.001)
			}
		}()
	}
	stop := make(chan struct{})
	go func() { // concurrent reader: time must never appear to move backwards
		last := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				if now := c.Now(); now < last {
					t.Errorf("clock went backwards: %v after %v", now, last)
					return
				} else {
					last = now
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	want := float64(writers*per) * 0.001
	if got := c.Now(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("lost updates: clock at %v, want %v", got, want)
	}
}
