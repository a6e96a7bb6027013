package core

import (
	"sync"
	"testing"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// Forwards racing PublishLoRA and training ticks serve one whole published
// state or the other. A publish writes the merged rows and B in place, so it
// holds paramMu for write, as a tick does, while every forward holds it for
// read. In the two crafted states every probe id has the unit row e_s and B
// row s is the direction dirs[s], with B's other rows poison, so a forward
// that mixes the rows of one state with the B of the other, or reads a half
// copied row, serves a probability neither state gives. EmbLR is so small
// that a tick's steps round away against these factors: ticks run for their
// write lock and move no served bit. Run under -race this is also the proof
// that no adapter write happens outside paramMu.
func TestServeSeesOnePublishedStateNeverTorn(t *testing.T) {
	o := testOptions()
	o.EmbLR = 1e-300
	o.LoRA.DisableRankAdapt = true
	o.LoRA.AdaptInterval = 1 << 30 // no pruning: the probes' rows stay
	s := MustNew(o)
	p := o.Profile
	probes := trace.MustNewGenerator(p, 11).Batch(16, 1)

	rank := s.LoRA.Adapters[0].Rank()
	var states [2][]lora.TableState
	for st := range states {
		states[st] = make([]lora.TableState, p.NumTables)
		for table := range states[st] {
			b := tensor.NewMatrix(rank, p.EmbeddingDim)
			for i := range b.Data {
				b.Data[i] = 50 // poison
			}
			dir := b.Row(st)
			for j := range dir {
				dir[j] = 0.05 * float64(1+3*st+j%5) * float64(1-2*(j%2))
			}
			var rows []lora.RowUpdate
			for _, sample := range probes {
				for _, id := range sample.Sparse[table] {
					row := make([]float64, rank)
					row[st] = 1
					rows = append(rows, lora.RowUpdate{ID: id, Row: row})
				}
			}
			states[st][table] = lora.TableState{Rows: rows, B: b, Rank: rank}
		}
	}

	var ref [2][]Response
	for st := range ref {
		s.PublishLoRA(states[st], int64(st))
		ref[st] = make([]Response, len(probes))
		if err := s.ServeBatch(probes, ref[st]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range probes {
		if ref[0][i].Prob == ref[1][i].Prob {
			t.Fatalf("fixture: probe %d serves %v under both states", i, ref[0][i].Prob)
		}
	}

	batches := 400
	if raceEnabled {
		batches = 60
	}
	stop := make(chan struct{})
	var servers, trainer sync.WaitGroup
	torn := make(chan string, 2)
	for g := 0; g < 2; g++ {
		servers.Add(1)
		go func() {
			defer servers.Done()
			got := make([]Response, len(probes))
			for range batches {
				if err := s.ServeBatch(probes, got); err != nil {
					torn <- err.Error()
					return
				}
				for i, r := range got {
					if r.Prob != ref[0][i].Prob && r.Prob != ref[1][i].Prob {
						torn <- "probe served a probability of neither state"
						return
					}
				}
			}
		}()
	}
	trainer.Add(1)
	go func() {
		defer trainer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.TrainTick()
			}
		}
	}()
	served := make(chan struct{})
	go func() { servers.Wait(); close(served) }()
	publishes := 0
	for publishing := true; publishing; publishes++ {
		s.PublishLoRA(states[publishes%2], int64(publishes+2))
		select {
		case <-served:
			publishing = false
		default:
		}
	}
	close(stop)
	trainer.Wait()
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
	if s.AdapterEpoch() != int64(publishes+1) {
		t.Fatalf("epoch %d after %d publishes, want %d", s.AdapterEpoch(), publishes, publishes+1)
	}
	if st := s.Stats(); st.TrainSteps == 0 {
		t.Fatal("fixture: no training tick ran")
	}
}

// Forwards racing FullSync on an int8-quantized node serve the old weights or
// the new ones, never a mix. FullSync overwrites the base tables and the
// dense weights and rebuilds the quantized snapshot the forward reads, all
// under paramMu for write; a forward that read the snapshot of one state with
// the base rows of the other, or a half-copied table, would serve a
// probability neither state gives. Training is off, so the adapters stay at
// ∆W = 0 and the two states alone decide every probe. Run under -race this is
// also the proof that refreshQuant writes the snapshot only inside paramMu.
func TestServeSeesOneFullSyncStateNeverTorn(t *testing.T) {
	o := testOptions()
	o.EnableTraining = false
	o.Quantization = "int8"
	s := MustNew(o)
	p := o.Profile
	probes := trace.MustNewGenerator(p, 11).Batch(16, 1)

	type state struct {
		base  *emt.Group
		model *dlrm.Model
	}
	var states [2]state
	var ref [2][]Response
	for st := range states {
		rng := tensor.NewRNG(uint64(100 + st))
		model, err := dlrm.NewModel(dlrm.ConfigForProfile(p), rng)
		if err != nil {
			t.Fatal(err)
		}
		states[st] = state{emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng), model}
		s.FullSync(states[st].base, states[st].model)
		ref[st] = make([]Response, len(probes))
		if err := s.ServeBatch(probes, ref[st]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range probes {
		if ref[0][i].Prob == ref[1][i].Prob {
			t.Fatalf("fixture: probe %d serves %v under both states", i, ref[0][i].Prob)
		}
	}

	batches := 400
	if raceEnabled {
		batches = 60
	}
	var servers sync.WaitGroup
	torn := make(chan string, 2)
	for g := 0; g < 2; g++ {
		servers.Add(1)
		go func() {
			defer servers.Done()
			got := make([]Response, len(probes))
			for range batches {
				if err := s.ServeBatch(probes, got); err != nil {
					torn <- err.Error()
					return
				}
				for i, r := range got {
					if r.Prob != ref[0][i].Prob && r.Prob != ref[1][i].Prob {
						torn <- "probe served a probability of neither state"
						return
					}
				}
			}
		}()
	}
	served := make(chan struct{})
	go func() { servers.Wait(); close(served) }()
	syncs := 0
	for syncing := true; syncing; syncs++ {
		st := states[syncs%2]
		s.FullSync(st.base, st.model)
		select {
		case <-served:
			syncing = false
		default:
		}
	}
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
	if got := s.Stats().FullSyncs; got != uint64(syncs+2) {
		t.Fatalf("full syncs %d, want %d", got, syncs+2)
	}
}
