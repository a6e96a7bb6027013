package core

import (
	"math"
	"reflect"
	"testing"

	"liveupdate/internal/trace"
)

// Regression: lora.Adapter.Resize used to draw random numbers in map order,
// so the rank trajectory — and with it every served probability — differed
// between two runs of one seed.
func TestServeIsAFunctionOfTheSeed(t *testing.T) {
	p := trace.Profiles()["criteo"]
	build := func() (*System, *trace.Generator) {
		return MustNew(DefaultOptions(p, 42)), trace.MustNewGenerator(p, 7)
	}
	a, ga := build()
	b, gb := build()
	n := 20000
	if raceEnabled {
		n = 5000
	}
	for i := 0; i < n; i++ {
		ra, err := a.Serve(ga.Next())
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.Serve(gb.Next())
		if math.Float64bits(ra.Prob) != math.Float64bits(rb.Prob) {
			t.Fatalf("request %d: prob %v vs %v from identical systems", i, ra.Prob, rb.Prob)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.LoRARank != sb.LoRARank || sa.LoRAHotRows != sb.LoRAHotRows {
		t.Fatalf("adapters diverged: rank %d vs %d, hot rows %d vs %d", sa.LoRARank, sb.LoRARank, sa.LoRAHotRows, sb.LoRAHotRows)
	}
	if sa.LoRARank == a.Opts.LoRA.InitialRank {
		t.Fatalf("fixture never resized an adapter (rank still %d): the regression is not exercised", sa.LoRARank)
	}
}

// Serve reads the window's P99 only when the controller is due to act on it.
// A twin that feeds Observe the P99 after every tick, eagerly, through the
// public pieces of Serve, must hold the same CCD partition after every
// request and end with the same statistics. The controller thresholds sit inside the latency band, with a
// short cycle, so that CCDs really move, in both directions, many times.
func TestDueGateMatchesEagerObserve(t *testing.T) {
	n := 50000
	if raceEnabled || testing.Short() {
		n = 20000
	}
	p := trace.Profiles()["criteo"]
	opts := DefaultOptions(p, 42)
	opts.Controller.THigh = 0.0055
	opts.Controller.TLow = 0.0052
	opts.Controller.CyclePeriod = 0.25
	gated := MustNew(opts)

	twinOpts := opts
	twinOpts.EnableTraining = false // the test fires the ticks itself
	eager := MustNew(twinOpts)

	ga, gb := trace.MustNewGenerator(p, 7), trace.MustNewGenerator(p, 7)
	var toInf, toTr int // partition changes of the gated controller
	prev := gated.Controller.InferenceCCDs()
	for i := 0; i < n; i++ {
		if _, err := gated.Serve(ga.Next()); err != nil {
			t.Fatal(err)
		}
		s := gb.Next()
		eager.Node.Predict(s)
		eager.Lock()
		eager.Node.Commit(s)
		eager.Unlock()
		if (i+1)%opts.TrainInterval == 0 {
			eager.TrainTick()
			eager.Controller.Observe(eager.Node.P99())
		}
		g, e := gated.Controller.InferenceCCDs(), eager.Controller.InferenceCCDs()
		if g != e {
			t.Fatalf("request %d: inference CCDs gated %d, eager %d", i, g, e)
		}
		if g > prev {
			toInf++
		} else if g < prev {
			toTr++
		}
		prev = g
	}
	if toInf < 5 || toTr < 5 {
		t.Fatalf("fixture too quiet: %d moves to inference, %d to training", toInf, toTr)
	}
	if gs, es := gated.Stats(), eager.Stats(); !reflect.DeepEqual(gs, es) {
		t.Fatalf("stats diverge:\n gated %+v\n eager %+v", gs, es)
	}
}
