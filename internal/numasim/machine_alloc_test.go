package numasim_test

import (
	"runtime"
	"testing"

	"liveupdate/internal/core"
	"liveupdate/internal/numasim"
	"liveupdate/internal/trace"
)

// A machine built by core.New has its L3 index presized to the profile's
// key space, replica tables included when the trainer runs without reuse:
// from its very first access, no cached, reuse or stream access allocates.
func TestMachineAccessAllocs(t *testing.T) {
	p := trace.Profiles()["criteo"]
	for _, reuse := range []bool{true, false} {
		opts := core.DefaultOptions(p, 7)
		opts.EnableReuse = reuse
		sys, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, tables, rows := sys.Machine, int32(p.NumTables), int32(p.TableSize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for space := int32(0); space < 2*tables; space++ {
			w := numasim.Inference
			if space >= tables {
				if reuse {
					break
				}
				w = numasim.Training // the naive trainer's replica tables
			}
			for row := int32(0); row < rows; row++ {
				m.Access(w, numasim.KindCached, space, row)
				m.Access(numasim.Training, numasim.KindReuse, space%tables, row)
				m.Access(numasim.Training, numasim.KindStream, 2*tables, 0)
			}
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("reuse=%v: %d allocations over the first accesses of every key, want 0", reuse, n)
		}
	}
}
