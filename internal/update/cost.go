// Package update implements the model-update strategies the paper compares
// (§V-A): NoUpdate, DeltaUpdate (industry streaming practice), QuickUpdate
// (top-α% magnitude filtering, NSDI'24), and LiveUpdate (inference-side LoRA
// training). It provides both the paper-scale cost model behind Figs 8/14
// and the laptop-scale accuracy harness behind Table III / Figs 3b/15.
package update

import (
	"fmt"
	"math"

	"liveupdate/internal/trace"
)

// Kind enumerates the compared strategies.
type Kind int

// The strategy kinds of paper §V-A.
const (
	NoUpdate Kind = iota
	DeltaUpdate
	QuickUpdate
	LiveUpdate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NoUpdate:
		return "NoUpdate"
	case DeltaUpdate:
		return "DeltaUpdate"
	case QuickUpdate:
		return "QuickUpdate"
	case LiveUpdate:
		return "LiveUpdate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CostModel computes paper-scale update costs on the virtual timeline. It
// substitutes arithmetic-on-50TB for the authors' testbed: transfer costs
// follow bandwidth, LiveUpdate costs follow local CPU training throughput.
type CostModel struct {
	Profile trace.Profile

	// BandwidthBps is the inter-cluster link bandwidth (paper: 100 GbE).
	BandwidthBps float64
	// QuickAlpha is QuickUpdate's parameter sampling rate (paper: 5-10%).
	QuickAlpha float64
	// CPUTrainBps is the co-located trainer's data-processing throughput:
	// how fast idle inference CPUs consume cached training bytes.
	CPUTrainBps float64
	// BaseLatency is the per-transfer fixed cost (version negotiation etc.).
	BaseLatency float64
}

// defaultQuickAlpha is QuickUpdate's default sampling rate, the low end of
// the paper's 5-10%, shared by the cost model and the harness.
const defaultQuickAlpha = 0.05

// DefaultCostModel returns the paper's evaluation constants for a profile:
// 100 GbE, 5% QuickUpdate sampling, and a trainer throughput calibrated so
// LiveUpdate's hourly training cost lands in the paper's 3-5 minute band.
func DefaultCostModel(p trace.Profile) CostModel {
	return CostModel{
		Profile:      p,
		BandwidthBps: 100e9 / 8,
		QuickAlpha:   defaultQuickAlpha,
		CPUTrainBps:  1.6e9,
		BaseLatency:  2.0,
	}
}

// dirtyRatioForWindow scales the profile's 10-minute update ratio to an
// arbitrary window. Row-update arrival is strongly sublinear in time (hot
// rows are re-touched constantly), modeled as ratio(t) = r10 · (t/600)^0.35,
// capped at 1. The exponent reproduces the concave growth of paper Fig 3a
// and DeltaUpdate's >60-minute hourly cost at 5-minute frequency (Fig 14).
func (cm CostModel) dirtyRatioForWindow(windowSec float64) float64 {
	r := cm.Profile.UpdateRatio10Min * math.Pow(windowSec/600, 0.35)
	if r > 1 {
		r = 1
	}
	return r
}

// deltaBytes returns the bytes a DeltaUpdate sync ships after windowSec of
// training: the dirty fraction of the full EMT.
func (cm CostModel) deltaBytes(windowSec float64) int64 {
	return int64(cm.dirtyRatioForWindow(windowSec) * float64(cm.Profile.PaperEMTBytes))
}

// quickBytes returns the bytes a QuickUpdate sync ships: the top-α fraction
// of parameters (α of the full table, per the paper's 5-10% sampling).
func (cm CostModel) quickBytes() int64 {
	return int64(cm.QuickAlpha * float64(cm.Profile.PaperEMTBytes))
}

// transferSeconds converts a payload to wire time on the inter-cluster link.
func (cm CostModel) transferSeconds(bytes int64) float64 {
	return cm.BaseLatency + float64(bytes)/cm.BandwidthBps
}

// LiveTrainSeconds returns LiveUpdate's local cost for one window: the time
// to train on the window's cached interaction data using idle CPU capacity.
// No network transfer is involved.
func (cm CostModel) LiveTrainSeconds(windowSec float64) float64 {
	bytesPerWindow := float64(cm.Profile.TrainBytesPer5Min) * windowSec / 300
	return bytesPerWindow / cm.CPUTrainBps
}

// updateCost returns the cost in seconds of a single update under the given
// strategy with the given update window.
func (cm CostModel) updateCost(k Kind, windowSec float64) float64 {
	switch k {
	case NoUpdate:
		return 0
	case DeltaUpdate:
		return cm.transferSeconds(cm.deltaBytes(windowSec))
	case QuickUpdate:
		return cm.transferSeconds(cm.quickBytes())
	case LiveUpdate:
		return cm.LiveTrainSeconds(windowSec)
	default:
		panic(fmt.Sprintf("update: unknown kind %d", k))
	}
}

// HourlyCost returns the total update cost accumulated over one hour of
// operation at the given update interval — the quantity plotted in Fig 14.
func (cm CostModel) HourlyCost(k Kind, windowSec float64) float64 {
	if k == NoUpdate {
		return 0
	}
	updates := math.Floor(3600 / windowSec)
	return updates * cm.updateCost(k, windowSec)
}

// VersionEvent is one model-version activation in a Fig 8 timeline.
type VersionEvent struct {
	Time    float64 // seconds from hour start when the version goes live
	Kind    string  // "full" or "lora" or "delta"
	Version int
}

// Timeline reproduces Fig 8: the sequence of model versions each strategy
// activates over horizonSec, assuming back-to-back updates (each update
// starts when the previous finishes, plus the strategy's update window gate).
// LiveUpdate and QuickUpdate additionally place an hourly full update.
func (cm CostModel) Timeline(k Kind, windowSec, horizonSec float64) []VersionEvent {
	var events []VersionEvent
	switch k {
	case NoUpdate:
		return nil
	case DeltaUpdate:
		cost := cm.updateCost(DeltaUpdate, windowSec)
		t := cost // first update completes after one transfer
		v := 1
		for t <= horizonSec {
			events = append(events, VersionEvent{Time: t, Kind: "full", Version: v})
			step := math.Max(cost, windowSec)
			t += step
			v++
		}
	case QuickUpdate, LiveUpdate:
		cost := cm.updateCost(k, windowSec)
		kind := "delta"
		gate := windowSec
		if k == LiveUpdate {
			kind = "lora"
			// LiveUpdate trains continuously on streaming local data, so it
			// can version at sub-window cadence; only half a window of fresh
			// samples is needed per LoRA version (paper Fig 8: 3-minute
			// cadence vs QuickUpdate's 6).
			gate = windowSec / 2
		}
		v := 1
		t := cost
		for t <= horizonSec {
			events = append(events, VersionEvent{Time: t, Kind: kind, Version: v})
			t += math.Max(cost, gate)
			v++
		}
		// Hourly full updates to bound drift (paper Fig 8).
		full := cm.transferSeconds(cm.Profile.PaperEMTBytes)
		for h := 3600.0; h <= horizonSec; h += 3600 {
			events = append(events, VersionEvent{Time: h + full, Kind: "full", Version: v})
			v++
		}
	}
	return events
}
