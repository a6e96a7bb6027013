package numasim

import (
	"fmt"

	"liveupdate/internal/simnet"
)

// ControllerConfig parameterizes Algorithm 2 (adaptive NUMA resource
// partitioning). Defaults follow the paper: rebalance when GPU-path P99
// exceeds 10 ms, reclaim for training below 6 ms.
type ControllerConfig struct {
	THigh        float64 // seconds: move a CCD to inference at/above this P99
	TLow         float64 // seconds: move a CCD to training at/below this P99
	MinInfCCDs   int     // m_inf: inference never drops below this
	MaxTrainCCDs int     // M_train: training never exceeds this
	CyclePeriod  float64 // seconds between adjustments (T_cycle)
}

// DefaultControllerConfig returns the paper's thresholds for a machine with
// numCCDs dies: 10 ms / 6 ms, at least half the CCDs for inference, training
// capped at a third.
func DefaultControllerConfig(numCCDs int) ControllerConfig {
	maxTrain := numCCDs / 3
	if maxTrain < 1 {
		maxTrain = 1
	}
	minInf := numCCDs / 2
	if minInf < 1 {
		minInf = 1
	}
	return ControllerConfig{
		THigh:        0.010,
		TLow:         0.006,
		MinInfCCDs:   minInf,
		MaxTrainCCDs: maxTrain,
		CyclePeriod:  1.0,
	}
}

// validate reports configuration errors against a machine of numCCDs dies.
func (c ControllerConfig) validate(numCCDs int) error {
	switch {
	case c.THigh <= c.TLow:
		return fmt.Errorf("numasim: THigh must exceed TLow")
	case c.MinInfCCDs < 1 || c.MinInfCCDs >= numCCDs:
		return fmt.Errorf("numasim: MinInfCCDs %d out of [1,%d)", c.MinInfCCDs, numCCDs)
	case c.MaxTrainCCDs < 1 || c.MaxTrainCCDs >= numCCDs:
		return fmt.Errorf("numasim: MaxTrainCCDs %d out of [1,%d)", c.MaxTrainCCDs, numCCDs)
	case c.CyclePeriod <= 0:
		return fmt.Errorf("numasim: CyclePeriod must be positive")
	}
	return nil
}

// Controller runs Algorithm 2: it watches inference P99 latency and moves
// CCDs between the inference and training partitions with hysteresis.
type Controller struct {
	cfg     ControllerConfig
	machine *Machine
	clock   *simnet.Clock

	infCCDs    int
	lastAdjust float64
}

// NewController attaches a controller to m, starting from the given initial
// inference share.
func NewController(cfg ControllerConfig, m *Machine, clock *simnet.Clock, initialInfCCDs int) (*Controller, error) {
	n := m.config().NumCCDs
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if initialInfCCDs < cfg.MinInfCCDs {
		initialInfCCDs = cfg.MinInfCCDs
	}
	if initialInfCCDs >= n {
		initialInfCCDs = n - 1
	}
	if n-initialInfCCDs > cfg.MaxTrainCCDs {
		initialInfCCDs = n - cfg.MaxTrainCCDs
	}
	ctl := &Controller{
		cfg:        cfg,
		machine:    m,
		clock:      clock,
		infCCDs:    initialInfCCDs,
		lastAdjust: -cfg.CyclePeriod, // allow an immediate first adjustment
	}
	if err := m.Partition(initialInfCCDs); err != nil {
		return nil, err
	}
	return ctl, nil
}

// InferenceCCDs returns the current inference partition size.
func (ctl *Controller) InferenceCCDs() int { return ctl.infCCDs }

// TrainingCCDs returns the current training partition size.
func (ctl *Controller) TrainingCCDs() int { return ctl.machine.config().NumCCDs - ctl.infCCDs }

// Due reports whether Observe would act on a measurement now, i.e. whether
// the cycle period has elapsed since the last adjustment. Until it has,
// Observe ignores its argument, so a caller whose measurement costs something
// (a quantile over the latency window) checks Due first and skips taking it;
// the decision sequence is the same either way. The period restarts only
// when a CCD moves: a controller sitting at its bounds stays due.
func (ctl *Controller) Due() bool {
	return ctl.clock.Now()-ctl.lastAdjust >= ctl.cfg.CyclePeriod
}

// Observe feeds one P99 measurement (seconds). Following Algorithm 2: above
// THigh a CCD moves from training to inference; below TLow one moves back,
// subject to MinInfCCDs / MaxTrainCCDs and the cycle period. It returns true
// when the partition changed.
func (ctl *Controller) Observe(p99 float64) bool {
	if !ctl.Due() {
		return false
	}
	n := ctl.machine.config().NumCCDs
	switch {
	case p99 >= ctl.cfg.THigh && ctl.infCCDs < n-1:
		// Grow inference; training always retains at least one CCD.
		ctl.infCCDs++
	case p99 <= ctl.cfg.TLow && ctl.TrainingCCDs() < ctl.cfg.MaxTrainCCDs && ctl.infCCDs > ctl.cfg.MinInfCCDs:
		ctl.infCCDs--
	default:
		return false
	}
	ctl.lastAdjust = ctl.clock.Now()
	if err := ctl.machine.Partition(ctl.infCCDs); err != nil {
		// Revert bookkeeping on the (unreachable in practice) failure.
		panic(err)
	}
	return true
}
