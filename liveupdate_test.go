package liveupdate

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func smallProfile(t *testing.T) Profile {
	t.Helper()
	p, err := ProfileByName("criteo")
	if err != nil {
		t.Fatal(err)
	}
	p.NumTables = 3
	p.TableSize = 300
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 1}
	return p
}

func TestPublicQuickstartFlow(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.(*System); !ok {
		t.Fatalf("single-replica New must build a *System, got %T", srv)
	}
	gen := NewWorkload(p, 42)
	for i := 0; i < 100; i++ {
		resp, err := srv.Serve(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Prob <= 0 || resp.Prob >= 1 || resp.Latency <= 0 {
			t.Fatalf("bad serve output: %+v", resp)
		}
		if resp.Replica != 0 {
			t.Fatalf("single node must report replica 0, got %d", resp.Replica)
		}
	}
	st := srv.Stats()
	if st.P99 <= 0 {
		t.Fatal("P99 must be measurable")
	}
	if st.Served != 100 {
		t.Fatalf("Served = %d, want 100", st.Served)
	}
	if st.MemoryOverhead < 0 {
		t.Fatal("overhead must be non-negative")
	}
}

func TestWithTrainingOff(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithSeed(7), WithTraining(false))
	if err != nil {
		t.Fatal(err)
	}
	gen := NewWorkload(p, 7)
	for i := 0; i < 50; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.TrainSteps != 0 {
		t.Fatalf("training disabled via WithTraining(false), but %d train steps ran", st.TrainSteps)
	}
}

func TestNewOptionValidation(t *testing.T) {
	p := smallProfile(t)
	if _, err := New(); err == nil {
		t.Fatal("New without a profile must error")
	}
	if _, err := New(WithProfile(p), WithReplicas(0)); err == nil {
		t.Fatal("WithReplicas(0) must error")
	}
	if _, err := New(WithProfile(p), WithRouter(RouterPolicy("bogus"))); err == nil {
		t.Fatal("unknown router policy must error")
	}
	if _, err := New(WithProfile(p), WithSyncEvery(-time.Second)); err == nil {
		t.Fatal("negative sync interval must error")
	}
}

func TestServeRejectsMismatchedSample(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	bad := Sample{Dense: make([]float64, p.NumDense), Sparse: [][]int32{{1}}}
	if _, err := srv.Serve(bad); err == nil {
		t.Fatal("sample with wrong sparse arity must be rejected")
	}
}

func TestWithSystemOptionsOverride(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithSystemOptions(func(o *Options) {
		o.Node.SLA = 0.042
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sla := srv.Stats().SLA; sla != 0.042 {
		t.Fatalf("SLA override not applied: %v", sla)
	}
}

func TestRouterPoliciesExposed(t *testing.T) {
	ps := RouterPolicies()
	if len(ps) != 3 {
		t.Fatalf("want 3 router policies, got %v", ps)
	}
	want := map[RouterPolicy]bool{RoundRobinRouter: true, LeastLoadedRouter: true, HashRouter: true}
	for _, p := range ps {
		if !want[p] {
			t.Fatalf("unexpected policy %q", p)
		}
	}
}

func TestPublicComparison(t *testing.T) {
	p := smallProfile(t)
	cfg := NewComparison(p, DeltaUpdate, 7)
	cfg.SamplesPerWindow = 150
	res, err := RunComparison(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != DeltaUpdate || len(res.AUCSeries) != 4 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestPublicCostModel(t *testing.T) {
	p, err := ProfileByName("bd-tb")
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCostModel(p)
	if cm.HourlyCost(LiveUpdate, 300) >= cm.HourlyCost(DeltaUpdate, 300) {
		t.Fatal("LiveUpdate must be cheaper than DeltaUpdate at 5-min updates")
	}
}

func TestRunExperimentKnownAndUnknown(t *testing.T) {
	out, err := RunExperiment("table2", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Criteo") {
		t.Fatalf("table2 output missing datasets:\n%s", out)
	}
}

func TestRunExperimentUnknownIDError(t *testing.T) {
	_, err := RunExperiment("nope", 1, true)
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	// The error must name the bad id and list the valid ones, so a CLI user
	// can self-correct.
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("error must quote the unknown id: %v", err)
	}
	for _, id := range []string{"table2", "fig19"} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error must list valid id %q: %v", id, err)
		}
	}
}

// TestExperimentIDsStable: the suite is exactly the paper's 18 tables and
// figures, in presentation order.
func TestExperimentIDsStable(t *testing.T) {
	want := []string{
		"table2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig14", "table3", "fig15", "fig16",
		"fig17", "fig18", "fig19",
	}
	if ids := ExperimentIDs(); !slices.Equal(ids, want) {
		t.Fatalf("ExperimentIDs() = %v, want %v", ids, want)
	}
}

// TestDriveChaosPublicAPI: a chaos schedule is a setting of the drive —
// DriveConfig.Chaos — and Drive is its one check: it rejects an invalid
// schedule, and any schedule aimed at a single System, which has no
// membership to change. Chaos drives themselves are the determinism
// matrix's chaos cells.
func TestDriveChaosPublicAPI(t *testing.T) {
	p := smallProfile(t)
	schedule, err := ParseChaosScript("@500ms kill 1; @900ms replace 1; @1300ms scale 4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChaosScript("@1s detonate 2"); err == nil {
		t.Fatal("unknown chaos action must be rejected")
	}
	single, err := New(WithProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(single, NewWorkload(p, 7), DriveConfig{Requests: 10, Chaos: schedule}); err == nil {
		t.Fatal("chaos on a single System must be rejected")
	}
	srv, err := New(
		WithProfile(p),
		WithSeed(42),
		WithReplicas(3),
		WithRouter(HashRouter),
		WithSyncEvery(300*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The ElasticServer surface must be reachable from the public type.
	if _, ok := srv.(ElasticServer); !ok {
		t.Fatalf("%T must implement ElasticServer", srv)
	}
	bad := ChaosSchedule{{At: -time.Second, Action: ChaosKill, Arg: 0}}
	if _, err := Drive(srv, NewWorkload(p, 7), DriveConfig{Requests: 10, Chaos: bad}); err == nil {
		t.Fatal("invalid schedule must be rejected")
	}
	if st := srv.Stats(); st.Served != 0 {
		t.Fatalf("a rejected drive served %d requests", st.Served)
	}
}

func TestElasticServerScaleAndFail(t *testing.T) {
	p := smallProfile(t)
	srv, err := New(WithProfile(p), WithReplicas(2), WithSyncEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	es := srv.(ElasticServer)
	if err := es.Scale(4); err != nil {
		t.Fatal(err)
	}
	if err := es.FailReplica(0); err != nil {
		t.Fatal(err)
	}
	if slot, err := es.ReplaceReplica(0); err != nil || slot != 0 {
		t.Fatalf("replace: slot=%d err=%v", slot, err)
	}
	gen := NewWorkload(p, 9)
	for i := 0; i < 50; i++ {
		if _, err := srv.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Members != 4 || st.Served != 50 {
		t.Fatalf("post-churn stats: members=%d served=%d", st.Members, st.Served)
	}
}
