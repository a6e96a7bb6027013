package numasim_test

import (
	"testing"

	"liveupdate/internal/core"
	"liveupdate/internal/numasim"
	"liveupdate/internal/trace"
)

// A machine built by core.New has its L3 index presized to the profile's
// key space, replica tables included when the trainer runs without reuse:
// from its very first access, no cached, reuse or stream access allocates.
// The machines are built before the measurement, and each measured call
// touches a fresh one; AllocsPerRun pins GOMAXPROCS to 1, so the count is
// this goroutine's accesses rather than whatever else the process runs.
func TestMachineAccessAllocs(t *testing.T) {
	const runs = 4
	p := trace.Profiles()["criteo"]
	tables, rows := int32(p.NumTables), int32(p.TableSize)
	for _, reuse := range []bool{true, false} {
		opts := core.DefaultOptions(p, 7)
		opts.EnableReuse = reuse
		fresh := make([]*numasim.Machine, runs+1) // AllocsPerRun warms up with one extra call
		for i := range fresh {
			sys, err := core.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = sys.Machine
		}
		n := testing.AllocsPerRun(runs, func() {
			m := fresh[0]
			fresh = fresh[1:]
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
		})
		if n != 0 {
			t.Fatalf("reuse=%v: %v allocations over a fresh machine's first accesses of every key, want 0", reuse, n)
		}
	}
}
