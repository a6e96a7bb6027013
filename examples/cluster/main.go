// Cluster: multi-node serving with LoRA synchronization (paper §II-C, §IV-E,
// Fig 19), entirely through the public liveupdate API. Four replica nodes
// share one base checkpoint; the hash router shards requests by embedding
// locality, so each replica trains its adapters on a disjoint slice of the
// id space; the periodic sparse priority-merge sync (Algorithm 3 over a tree
// AllGather) reconciles them, and every replica converges to identical
// effective embeddings — the replica-consistency requirement of §II-C.
package main

import (
	"fmt"
	"time"

	"liveupdate"
)

func main() {
	profile, err := liveupdate.ProfileByName("criteo")
	if err != nil {
		panic(err)
	}
	profile.NumTables = 3
	profile.TableSize = 500
	profile.NumDense = 4
	profile.MultiHot = []int{1, 1, 1}

	srv, err := liveupdate.New(
		liveupdate.WithProfile(profile),
		liveupdate.WithSeed(11),
		liveupdate.WithReplicas(4),
		liveupdate.WithRouter(liveupdate.HashRouter),
		liveupdate.WithSyncEvery(0), // sync manually below to show the before/after
	)
	if err != nil {
		panic(err)
	}
	fleet := srv.(*liveupdate.Cluster)

	// Serve a shard-routed stream; each replica's co-located trainer only
	// sees the requests the router sends it.
	gen := liveupdate.NewWorkload(profile, 23)
	for i := 0; i < 2000; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			panic(err)
		}
	}
	fmt.Println("Multi-node LoRA sync (Algorithm 3 + recursive-doubling AllGather)")
	fmt.Printf("  consistent before sync: %v (disjoint shards diverge)\n",
		fleet.ReplicasConsistent(50))

	// Synchronize: priority merge + flat recursive-doubling AllGather (the
	// default topology) on a 100 GbE fabric.
	stats, err := fleet.SyncNow()
	if err != nil {
		panic(err)
	}
	fmt.Printf("  nodes:            %d\n", stats.Participants)
	fmt.Printf("  rows merged:      %d\n", stats.RowsMerged)
	fmt.Printf("  write conflicts:  %d (resolved max-rank-wins)\n", stats.Conflicts)
	fmt.Printf("  payload:          %d bytes\n", stats.PayloadBytes)
	fmt.Printf("  replica consistency: %v (identical outputs for identical inputs)\n",
		fleet.ReplicasConsistent(50))

	// The merged fleet snapshot: true cross-replica P99 plus sync costs.
	st := srv.Stats()
	fmt.Println("\nMerged fleet stats")
	fmt.Printf("  served:        %d across %d replicas (router %s)\n",
		st.Served, len(st.Replicas), fleet.RouterName())
	fmt.Printf("  fleet P99:     %.3f ms (violation rate %.4f)\n", st.P99*1000, st.ViolationRate)
	fmt.Printf("  train steps:   %d\n", st.TrainSteps)
	fmt.Printf("  sync cost:     %d bytes in %.4f virtual s\n", st.SyncBytes, st.SyncSeconds)
	for i, rs := range st.Replicas {
		fmt.Printf("    replica %d: served %4d  P99 %.3f ms  train %d\n",
			i, rs.Served, rs.P99*1000, rs.TrainSteps)
	}

	// A fleet with the periodic sync left on: syncs ride the virtual clock.
	auto, err := liveupdate.New(
		liveupdate.WithProfile(profile),
		liveupdate.WithReplicas(4),
		liveupdate.WithRouter(liveupdate.HashRouter),
		liveupdate.WithSyncEvery(2*time.Second),
	)
	if err != nil {
		panic(err)
	}
	gen2 := liveupdate.NewWorkload(profile, 29)
	for i := 0; i < 2000; i++ {
		if _, err := auto.Serve(gen2.Next()); err != nil {
			panic(err)
		}
	}
	ast := auto.Stats()
	fmt.Printf("\nPeriodic sync every 2s of virtual time: %d syncs in %.2f virtual s\n",
		ast.Syncs, ast.VirtualTime)
	fmt.Println("(replicas legally diverge again between syncs — the paper's short-term")
	fmt.Println(" local tier; each sync restores fleet-wide consistency)")
}
