// Drive: the concurrent load driver. A 4-replica fleet is pumped by 8
// client goroutines; independent replicas serve in parallel while the
// periodic LoRA priority-merge sync runs beside them on its virtual-time
// cadence. The punchline is the last block: a second, single-goroutine
// drive over an identical fleet reproduces the exact same virtual-time
// statistics — parallelism changes wall-clock throughput, never results.
package main

import (
	"fmt"
	"time"

	"liveupdate"
)

func buildFleet(profile liveupdate.Profile) liveupdate.Server {
	srv, err := liveupdate.New(
		liveupdate.WithProfile(profile),
		liveupdate.WithSeed(11),
		liveupdate.WithReplicas(4),
		liveupdate.WithRouter(liveupdate.HashRouter),
		liveupdate.WithSyncEvery(5*time.Second),
	)
	if err != nil {
		panic(err)
	}
	return srv
}

func main() {
	profile, err := liveupdate.ProfileByName("criteo")
	if err != nil {
		panic(err)
	}
	profile.NumTables = 3
	profile.TableSize = 500
	profile.NumDense = 4
	profile.MultiHot = []int{1, 1, 1}

	const requests = 20000

	srv := buildFleet(profile)
	rep, err := liveupdate.Drive(srv, liveupdate.NewWorkload(profile, 11), liveupdate.DriveConfig{
		Requests: requests,
		Workers:  8,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("drove %d requests with %d workers over %d replicas\n",
		rep.Served, rep.Workers, rep.Shards)
	fmt.Printf("  wall clock: %v (%.0f req/s)\n", rep.Elapsed.Round(time.Millisecond), rep.QPS)
	fmt.Printf("  virtual:    %.2fs (%.0f req/s), P99 %.3f ms, %d syncs\n",
		rep.VirtualTime, rep.VirtualQPS, rep.Final.P99*1000, rep.Final.Syncs)
	for _, ws := range rep.PerWorker {
		fmt.Printf("  worker %d: shards %v, served %d, busy %v\n",
			ws.Worker, ws.Shards, ws.Served, ws.Busy.Round(time.Millisecond))
	}

	// Same fleet, same workload, one worker: identical virtual-time results.
	seq, err := liveupdate.Drive(buildFleet(profile), liveupdate.NewWorkload(profile, 11),
		liveupdate.DriveConfig{Requests: requests, Workers: 1, Seed: 1})
	if err != nil {
		panic(err)
	}
	a, b := rep.Final, seq.Final
	fmt.Printf("\n8 workers vs 1 worker: served %d/%d, violations %d/%d, syncs %d/%d, P99 %.6f/%.6f ms\n",
		a.Served, b.Served, a.Violations, b.Violations, a.Syncs, b.Syncs, a.P99*1000, b.P99*1000)
	if a.Served == b.Served && a.Violations == b.Violations && a.Syncs == b.Syncs && a.P99 == b.P99 {
		fmt.Println("virtual-time results are identical regardless of worker count ✓")
	}
}
