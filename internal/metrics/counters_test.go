package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.load() != 0 {
		t.Fatal("zero value must start at 0")
	}
	c.Inc()
	c.v.Add(9)
	if got := c.load(); got != 10 {
		t.Fatalf("Load = %d, want 10", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	const workers, per = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.load(); got != workers*per {
		t.Fatalf("Load = %d, want %d", got, workers*per)
	}
}
