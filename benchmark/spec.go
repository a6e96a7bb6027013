package main

import (
	"encoding/json"
)

// metricSpec names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

type workloadSpec struct {
	Name string
	Why  string
	// Unlisted keeps a workload out of BENCHMARK.json: it runs by name and
	// with every other workload when none is named, and no bound is held
	// against it.
	Unlisted bool
}

// The tables below are the single source of BENCHMARK.json: `-print-spec`
// renders them and TestSpecMatchesBenchmarkJSON fails when the checked-in
// file drifts from them.

const runSeconds = 25

var benchCommand = []string{"bash", "benchmark/run.sh"}

var workloads = []workloadSpec{
	{Name: "node_fresh", Why: "The paper's claim in wall clock: one node with the co-located trainer on, so the train tick, lora rank adaptation, tensor PCA/SVD and metrics.Quantile do most of the work; lora is read and written."},
	{Name: "node_infer", Why: "Bypass for every trainer optimisation (prediction: no change): training off, published adapters read-only, so tensor/dlrm/emt/lora lookup/serving.Commit/numasim do all the work."},
	{Name: "fleet_drive", Why: "Both cores saturated by driver.Drive over a 4-replica fleet with async sync and a kill/replace/scale script: the only path through driver lanes, cluster routing, collective merge and fleet catch-up."},
	// wire_batch is unlisted. Two client goroutines, the gateway's handlers and
	// the runtime's poller share two processors, so its timings follow the
	// guest's scheduler as much as the program: over four ten-run sweeps its
	// throughput spread by 4-9 % and its latency tail by 4-16 % at the
	// reference speed (11 % and 25 % as measured; with one lane 12 % and 23 %),
	// in a noisy hour two to three times what the other four do, and past the
	// contract's 25 % ceiling on a host three times as noisy. Leaving it out also lets the
	// other four measure for 25 s instead of 20 s within the driver's time.
	{Name: "wire_batch", Why: "The ROADMAP's full path, netclient to socket to netserve admission/codec to cluster.ServeBatch, 4-sample batches on 2 connections: median wire-dominated, tail trainer-dominated, ~10x the allocations.", Unlisted: true},
	{Name: "freshness_1h", Why: "The paper's accuracy claim: update.Harness for LiveUpdate and DeltaUpdate over one drifting virtual hour, the only workload dominated by dlrm/lora/emt training and AUC evaluation; guards AUC."},
}

// Bounds follow the spreads measured on the reference host over ten seeds
// (README, "Measured spreads") with room for a host three times as noisy,
// which the acceptance driver's has been: timing metrics spread by 2-6 %
// there and set-up time by 5-14 %, rss_peak_mb by up to 7 % on fleet_drive
// (where the collector stands when the fixed count is reached), auc by 3-8 %
// (every seed is another ground truth), allocs_per_req by a percent.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "samples/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_tail_us", "us", "lower", 0.25},
	{"cpu_ms_per_kreq", "ms", "lower", 0.25},
	{"allocs_per_req", "allocs/sample", "lower", 0.08},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"auc", "auc", "higher", 0.15},
}

var perLayer = []metricSpec{
	{Name: "tensor.matvec_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.matvec_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "tensor.pca_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.tsvd_ns", Unit: "ns", Better: "lower"},
	{Name: "dlrm.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "dlrm.predict_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "dlrm.train_step_ns", Unit: "ns", Better: "lower"},
	{Name: "dlrm.eval_auc_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "emt.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "emt.checkpoint_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "lora.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "lora.train_ns", Unit: "ns", Better: "lower"},
	{Name: "lora.adapt_ns", Unit: "ns", Better: "lower"},
	{Name: "lora.adapt_count", Unit: "count", Better: "lower"},
	{Name: "lora.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "lora.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "lora.rank_final", Unit: "count", Better: "lower"},
	{Name: "lora.hot_rows_final", Unit: "count", Better: "lower"},
	{Name: "lora.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "serving.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "serving.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "numasim.access_ns", Unit: "ns", Better: "lower"},
	{Name: "numasim.inf_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "metrics.p99_ns", Unit: "ns", Better: "lower"},
	{Name: "core.serve_ns", Unit: "ns", Better: "lower"},
	{Name: "core.train_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "core.train_tick_count", Unit: "count", Better: "lower"},
	{Name: "core.tick_share", Unit: "ratio", Better: "lower"},
	{Name: "core.budget_coverage", Unit: "ratio", Better: "higher"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.serve_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.serve_call_us_p99", Unit: "us", Better: "lower"},
	{Name: "cluster.syncs", Unit: "count", Better: "higher"},
	{Name: "cluster.syncnow_ms", Unit: "ms", Better: "lower"},
	{Name: "collective.sync_wire_mb", Unit: "MB", Better: "lower"},
	{Name: "collective.sync_compute_s", Unit: "s", Better: "lower"},
	{Name: "collective.sync_publish_s", Unit: "s", Better: "lower"},
	{Name: "collective.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "collective.payload_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "fleet.event_ms_max", Unit: "ms", Better: "lower"},
	{Name: "fleet.catchup_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.joins", Unit: "count", Better: "higher"},
	{Name: "driver.batch_fill", Unit: "samples/call", Better: "higher"},
	{Name: "driver.lane_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "driver.overhead_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "netserve.encode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "netserve.decode_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "netserve.encode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "netserve.decode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "netserve.wire_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "netserve.accepted", Unit: "count", Better: "higher"},
	{Name: "netserve.completed", Unit: "count", Better: "higher"},
	{Name: "netserve.shed", Unit: "count", Better: "lower"},
	{Name: "netclient.retries", Unit: "count", Better: "lower"},
	{Name: "netclient.shed429", Unit: "count", Better: "lower"},
	{Name: "netclient.gaveup", Unit: "count", Better: "lower"},
	{Name: "update.live_step_ms", Unit: "ms", Better: "lower"},
	{Name: "update.delta_step_ms", Unit: "ms", Better: "lower"},
	{Name: "update.auc_delta", Unit: "auc", Better: "higher"},
	{Name: "update.auc_gain_pp", Unit: "pp", Better: "higher"},
	{Name: "update.bytes_live_mb", Unit: "MB", Better: "lower"},
	{Name: "update.bytes_delta_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.gen_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"},
	// Demoted from end-to-end (see README "Metrics that were demoted").
	{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.virt_p99_ms", Unit: "ms", Better: "lower"},
}

// specsFor returns the metrics a run reports: end-to-end with tracing off,
// per-layer with tracing on.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// benchmarkJSON renders the tables in the shape the builder's contract fixes.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: benchCommand, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if !w.Unlisted {
			doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e(m))
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}
