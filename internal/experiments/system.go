package experiments

import (
	"fmt"

	"liveupdate/internal/core"
	"liveupdate/internal/numasim"
	"liveupdate/internal/simnet"
	"liveupdate/internal/trace"
)

// sysProfile returns the laptop-scale profile used by system experiments.
func sysProfile() trace.Profile {
	p := trace.Profiles()["bd-tb"]
	p.NumTables = 4
	p.TableSize = 600
	p.NumDense = 8
	p.MultiHot = []int{1, 1, 1, 2}
	return p
}

// runSystem serves n requests on a System with the given isolation toggles
// and returns it for inspection.
func runSystem(o Options, training, scheduling, reuse bool, n int) *core.System {
	opts := core.DefaultOptions(sysProfile(), o.Seed)
	opts.EnableTraining = training
	opts.EnableScheduling = scheduling
	opts.EnableReuse = reuse
	// Scaled hardware: tight caches, a scaled DRAM channel, and a
	// concurrency factor standing in for the node's parallel request
	// streams make contention effects visible at laptop-size working sets.
	opts.Node.GPUDenseTime = 0.001
	opts.Machine.L3BlocksPerCCD = 48
	opts.Machine.DRAMBandwidth = 1e7
	opts.Machine.Concurrency = 32
	opts.TrainInterval = 4
	opts.TrainBatch = 8
	s := core.MustNew(opts)
	gen := trace.MustNewGenerator(sysProfile(), o.Seed^0x515)
	for i := 0; i < n; i++ {
		s.Serve(gen.Next())
	}
	return s
}

func sysRequests(o Options) int {
	if o.Quick {
		return 400
	}
	return 3000
}

// fig4 reproduces the 24-hour CPU-utilization curve of the production
// inference cluster (paper Fig 4): diurnal load with peak utilization ≤20%.
func fig4(o Options) (Report, error) {
	r := Report{
		ID:     "fig4",
		Title:  "CPU utilization over 24 hours, inference-only cluster",
		Header: []string{"hour", "load_factor", "cpu_util"},
	}
	const peakUtil = 0.20 // paper: CPUs peak around 20%
	maxLoad := 0.0
	for h := 0.0; h < 24; h += 1 {
		if l := trace.DiurnalLoadFactor(h); l > maxLoad {
			maxLoad = l
		}
	}
	peakSeen := 0.0
	for h := 0; h < 24; h++ {
		load := trace.DiurnalLoadFactor(float64(h))
		util := load / maxLoad * peakUtil
		if util > peakSeen {
			peakSeen = util
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%02d:00", h), f3(load), pct(util),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("peak utilization %s (paper: ≤20%%) — idle headroom motivates O1", pct(peakSeen)))
	return r, nil
}

// fig5 reproduces the 15-minute CPU power comparison (paper Fig 5):
// co-located training costs ~20% more power than inference alone.
func fig5(o Options) (Report, error) {
	r := Report{
		ID:     "fig5",
		Title:  "CPU power over 15 min: inference-only vs co-located training",
		Header: []string{"minute", "P_infer(W)", "P_colocated(W)", "overhead"},
	}
	mcfg := numasim.DefaultConfig()
	clockless := numasim.MustNewMachine(mcfg, simnet.NewClock())
	if err := clockless.Partition(10); err != nil {
		return r, err
	}
	sumRatio := 0.0
	for m := 0; m < 15; m++ {
		// Evening-hour load with per-minute wobble.
		load := trace.DiurnalLoadFactor(20+float64(m)/60) / trace.DiurnalLoadFactor(21)
		pInf := clockless.Power(load*0.25, 0)
		pCo := clockless.Power(load*0.25, 1)
		ratio := pCo/pInf - 1
		sumRatio += ratio
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", m), f2(pInf), f2(pCo), pct(ratio),
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("mean power overhead %s (paper: ~20%%)", pct(sumRatio/15)))
	return r, nil
}

// fig10 reproduces the DDR memory-pressure measurement (paper Fig 10):
// DRAM bandwidth is not saturated during serving — contention, not capacity,
// causes the latency spikes.
func fig10(o Options) (Report, error) {
	r := Report{
		ID:     "fig10",
		Title:  "DRAM bandwidth utilization during co-located serving",
		Header: []string{"checkpoint", "dram_util"},
	}
	opts := core.DefaultOptions(sysProfile(), o.Seed)
	opts.EnableScheduling = false
	opts.EnableReuse = false
	opts.Machine.L3BlocksPerCCD = 48
	opts.Machine.DRAMBandwidth = 2e6 // scaled channel so serving traffic registers
	opts.TrainInterval = 4
	s := core.MustNew(opts)
	gen := trace.MustNewGenerator(sysProfile(), o.Seed^0x99)
	n := sysRequests(o)
	step := n / 8
	peak := 0.0
	for i := 0; i < n; i++ {
		s.Serve(gen.Next())
		if (i+1)%step == 0 {
			u := s.Machine.DRAMUtilization()
			if u > peak {
				peak = u
			}
			r.Rows = append(r.Rows, []string{fmt.Sprintf("%d", i+1), pct(u)})
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("peak utilization %s — bandwidth not saturated (paper Fig 10); interference is cache/queueing, not raw capacity", pct(peak)))
	return r, nil
}

// fig11 reproduces the L3 hit-ratio ablation (paper Fig 11): (a) data reuse
// lifts the training workload's hit ratio, (b) CCD scheduling lifts the
// inference workload's.
func fig11(o Options) (Report, error) {
	r := Report{
		ID:     "fig11",
		Title:  "L3 hit ratio by optimization (paper Fig 11a/11b)",
		Header: []string{"config", "train_hit", "infer_hit"},
	}
	n := sysRequests(o)
	type cfg struct {
		name         string
		sched, reuse bool
	}
	configs := []cfg{
		{"w/o Opt", false, false},
		{"w/ Scheduling", true, false},
		{"w/ Reuse", false, true},
		{"w/ Reuse+Scheduling", true, true},
	}
	results := make(map[string][2]float64)
	for _, c := range configs {
		s := runSystem(o, true, c.sched, c.reuse, n)
		tr := s.Machine.HitRatio(numasim.Training)
		inf := s.Machine.HitRatio(numasim.Inference)
		results[c.name] = [2]float64{tr, inf}
		r.Rows = append(r.Rows, []string{c.name, pct(tr), pct(inf)})
	}
	if results["w/ Reuse"][0] > results["w/o Opt"][0] {
		r.Notes = append(r.Notes, "reuse raises training hit ratio (Fig 11a)")
	}
	if results["w/ Reuse+Scheduling"][1] > results["w/o Opt"][1] {
		r.Notes = append(r.Notes, "scheduling raises inference hit ratio (Fig 11b)")
	}
	return r, nil
}

// fig16 reproduces the end-to-end P99 ablation (paper Fig 16): naive
// co-location inflates tail latency; scheduling + reuse restore it to the
// inference-only floor.
func fig16(o Options) (Report, error) {
	r := Report{
		ID:     "fig16",
		Title:  "P99 latency under isolation ablation (paper Fig 16)",
		Header: []string{"config", "P99(ms)", "violation_rate"},
	}
	n := sysRequests(o)
	type cfg struct {
		name                   string
		training, sched, reuse bool
	}
	configs := []cfg{
		{"Only Infer", false, false, false},
		{"w/o Opt", true, false, false},
		{"w/ Scheduling", true, true, false},
		{"w/ Reuse+Scheduling", true, true, true},
	}
	p99 := make(map[string]float64)
	for _, c := range configs {
		s := runSystem(o, c.training, c.sched, c.reuse, n)
		p99[c.name] = s.Node.P99()
		r.Rows = append(r.Rows, []string{
			c.name, f3(s.Node.P99() * 1000), pct(s.Node.ViolationRate()),
		})
	}
	if p99["w/o Opt"] > p99["Only Infer"] {
		r.Notes = append(r.Notes,
			fmt.Sprintf("naive co-location inflates P99 %.2fx over inference-only (paper: >2x)",
				p99["w/o Opt"]/p99["Only Infer"]))
	}
	if p99["w/ Reuse+Scheduling"] < p99["w/o Opt"] {
		r.Notes = append(r.Notes,
			fmt.Sprintf("full isolation recovers to %.2fx of the floor (paper: near-indistinguishable)",
				p99["w/ Reuse+Scheduling"]/p99["Only Infer"]))
	}
	return r, nil
}

// fig18 reproduces the power/utilization before-vs-after comparison (paper
// Fig 18): LiveUpdate converts idle CPU cycles into freshness at modest
// power cost, without breaching the latency SLA.
func fig18(o Options) (Report, error) {
	r := Report{
		ID:     "fig18",
		Title:  "CPU power and utilization before/after LiveUpdate (paper Fig 18)",
		Header: []string{"metric", "before(inference-only)", "after(LiveUpdate)"},
	}
	n := sysRequests(o)
	before := runSystem(o, false, false, false, n)
	after := runSystem(o, true, true, true, n)
	const servingLoad = 0.20
	pB, pA := before.Power(servingLoad), after.Power(servingLoad)
	uB, uA := before.CPUUtilization(servingLoad), after.CPUUtilization(servingLoad)
	r.Rows = append(r.Rows,
		[]string{"power (W)", f2(pB), f2(pA)},
		[]string{"CPU utilization", pct(uB), pct(uA)},
		[]string{"P99 (ms)", f3(before.Node.P99() * 1000), f3(after.Node.P99() * 1000)},
	)
	r.Notes = append(r.Notes,
		fmt.Sprintf("power overhead %s for %.1fx utilization — idle cycles become freshness",
			pct(pA/pB-1), uA/uB))
	if after.Node.P99() < after.Opts.Node.SLA {
		r.Notes = append(r.Notes, "P99 remains under the 10 ms SLA with training active")
	}
	return r, nil
}
