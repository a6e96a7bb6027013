package liveupdate

// Telemetry determinism gate: every virtual-time statistic must be
// bit-identical with telemetry on or off — for any worker count, under
// chaos. The telemetry layer is a side-band wall-clock
// observer; if switching it on moves a single virtual-time bit, it has
// leaked into the simulation.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"liveupdate/internal/metrics"
)

// telemetryKey projects the virtual-time statistics the determinism
// contract covers (mirroring the driver's worker-count-invariance tests):
// fleet-level counters and quantiles, the applied chaos event placements,
// the membership counters, and the full per-replica snapshots minus the
// adapter-content fields (hot-row census, memory overhead), which the
// periodic-sync pipeline publishes at wall-clock-dependent instants.
type telemetryKey struct {
	served, violations, trainSteps uint64
	syncs                          int
	virtualTime, p50, p99          float64
	members, joins, leaves, fails  int
	events                         []AppliedChaosEvent
	perReplica                     []Stats
}

func telemetryKeyOf(rep DriveReport) telemetryKey {
	st := rep.Final
	k := telemetryKey{
		served:      st.Served,
		violations:  st.Violations,
		trainSteps:  st.TrainSteps,
		syncs:       st.Syncs,
		virtualTime: st.VirtualTime,
		p50:         st.P50,
		p99:         st.P99,
		members:     st.Members,
		joins:       st.Joins,
		leaves:      st.Leaves,
		fails:       st.Fails,
		events:      rep.Chaos,
	}
	for _, rs := range st.Replicas {
		rs.Replicas = nil
		rs.LoRAHotRows = 0
		rs.MemoryOverhead = 0
		k.perReplica = append(k.perReplica, rs)
	}
	return k
}

func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	p := smallProfile(t)
	schedule := ChaosSchedule{
		{At: 400 * time.Millisecond, Action: ChaosKill, Arg: 1},
		{At: 800 * time.Millisecond, Action: ChaosReplace, Arg: 1},
		{At: 1200 * time.Millisecond, Action: ChaosScale, Arg: 4},
	}
	const requests = 1500

	run := func(workers int, telemetry Option) (DriveReport, Server) {
		t.Helper()
		opts := []Option{
			WithProfile(p),
			WithSeed(42),
			WithReplicas(3),
			WithRouter(HashRouter),
			WithSyncEvery(2 * time.Second),
			WithSystemOptions(func(o *Options) { o.TrainInterval = 4 }),
		}
		if telemetry != nil {
			opts = append(opts, telemetry)
		}
		srv, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		gen := NewWorkload(p, 7)
		rep, err := Drive(srv, gen, DriveConfig{
			Requests: requests, Workers: workers, Seed: 1, Chaos: schedule,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Served != requests {
			t.Fatalf("workers=%d: served %d of %d", workers, rep.Served, requests)
		}
		if len(rep.Chaos) != len(schedule) || rep.ChaosSkipped != 0 {
			t.Fatalf("workers=%d: applied %d chaos events (skipped %d), want all %d",
				workers, len(rep.Chaos), rep.ChaosSkipped, len(schedule))
		}
		return rep, srv
	}

	baseline, off := run(1, nil)
	if ServerTelemetry(off) != nil {
		t.Fatal("server built without WithTelemetry must carry no telemetry")
	}
	want := telemetryKeyOf(baseline)
	if want.syncs == 0 {
		t.Fatalf("no periodic syncs fired (virtual time %.3fs) — horizon too short",
			want.virtualTime)
	}
	for _, workers := range []int{1, 3, 8} {
		rep, srv := run(workers, WithTelemetry(TelemetryConfig{SampleEvery: 1}))
		got := telemetryKeyOf(rep)
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("workers=%d: virtual-time stats diverge with telemetry on:\n  off: %+v\n  on:  %+v",
				workers, want, got)
		}

		// The side-band surface must actually have observed the run.
		tel := ServerTelemetry(srv)
		if tel == nil || tel.Tracer() == nil {
			t.Fatalf("workers=%d: WithTelemetry(SampleEvery:1) must expose a tracer", workers)
		}
		totals := tel.Tracer().StageTotals()
		for _, stage := range []metrics.Stage{metrics.StageRoute, metrics.StageForward, metrics.StageCommit, metrics.StageTrainTick, metrics.StageSyncPublish} {
			if totals[stage].Count == 0 {
				t.Fatalf("workers=%d: stage %q recorded no spans", workers, stage)
			}
		}
		if len(rep.Stages) == 0 {
			t.Fatalf("workers=%d: DriveReport.Stages empty with tracing on", workers)
		}
		seen := map[string]bool{}
		for _, s := range rep.Stages {
			if s.Count == 0 || s.TotalNs < 0 || s.MeanNs < 0 {
				t.Fatalf("workers=%d: implausible stage stat %+v", workers, s)
			}
			seen[s.Stage] = true
		}
		for _, name := range []string{"route", "forward", "commit", "train_tick", "sync_publish"} {
			if !seen[name] {
				t.Fatalf("workers=%d: stage %q missing from report breakdown %+v",
					workers, name, rep.Stages)
			}
		}
		var sb strings.Builder
		if err := tel.WriteMetrics(&sb); err != nil {
			t.Fatalf("workers=%d: WriteMetrics: %v", workers, err)
		}
		if want := fmt.Sprintf("\nliveupdate_serve_requests_total %d\n", requests); !strings.Contains(sb.String(), want) {
			t.Fatalf("workers=%d: /metrics lacks %q", workers, strings.TrimSpace(want))
		}
		for _, want := range []string{
			"# TYPE liveupdate_serve_requests_total counter",
			"liveupdate_sync_epochs_total",
			"liveupdate_fleet_members 4",
		} {
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("workers=%d: /metrics text missing %q:\n%s", workers, want, sb.String())
			}
		}
	}
}
