// Package trace synthesizes the CTR workloads used across all LiveUpdate
// experiments: Zipf-skewed embedding accesses, temporal concept drift (so
// model freshness matters, paper Fig 3b), diurnal request-rate curves (paper
// Fig 4), and dataset profiles mirroring Table II.
//
// This is the substitution for the paper's production traces (BD-TB) and for
// NVIDIA's DLRM synthesis scripts: the generator's ground-truth preference
// vector evolves over virtual time, so a stale model measurably loses AUC and
// a freshly updated one recovers it — the exact dynamic the paper studies.
//
// Generated samples are views into chunks of storage shared by neighbouring
// samples, not one heap object per slice; the ownership rule is on Sample.
package trace

import (
	"fmt"
	"math"
)

// Profile describes a dataset for both real (laptop-scale training) and
// simulated (paper-scale cost accounting) experiments. The real-scale fields
// drive the generator; the paper-scale fields drive internal/simnet cost
// models.
type Profile struct {
	Name string

	// Real-scale generation parameters (laptop-sized, used for training).
	NumTables    int   // number of embedding tables (categorical fields)
	TableSize    int   // rows per table |V|
	EmbeddingDim int   // d
	NumDense     int   // dense feature count
	MultiHot     []int // ids looked up per table (1 = one-hot)

	// Statistical character.
	ZipfS        float64 // access skew exponent (≥1 → strong power law)
	DriftRate    float64 // ground-truth drift speed per virtual hour
	PositiveRate float64 // approximate base CTR
	ChurnPerHour float64 // fraction of items whose popularity rank churns hourly

	// Paper-scale system parameters (Table II / §V-A) for simulation.
	PaperEMTBytes     int64   // total embedding table bytes (e.g. 50 TB)
	PaperSamples      int64   // dataset sample count
	RequestsPer5Min   int64   // sustained load (paper: ~100M per 5 min)
	UpdateRatio10Min  float64 // fraction of EMT rows updated per 10-min window (Fig 3a)
	TrainBytesPer5Min int64   // new training data per 5 min (paper: 25 GB)
}

const (
	tb = int64(1) << 40
	gb = int64(1) << 30
)

// Profiles returns the registry of dataset profiles used in the paper's
// evaluation (Table II). The TB-scale variants share real-scale generation
// parameters with their public counterparts but carry 50 TB system-scale
// settings.
func Profiles() map[string]Profile {
	avazu := Profile{
		Name:      "Avazu",
		NumTables: 6, TableSize: 4000, EmbeddingDim: 16, NumDense: 8,
		MultiHot: []int{1, 1, 1, 1, 2, 1},
		ZipfS:    1.05, DriftRate: 0.25, PositiveRate: 0.17, ChurnPerHour: 0.02,
		PaperEMTBytes: 55 * gb / 100, PaperSamples: 32_300_000,
		RequestsPer5Min: 100_000_000, UpdateRatio10Min: 0.08,
		TrainBytesPer5Min: 25 * gb,
	}
	criteo := Profile{
		Name:      "Criteo",
		NumTables: 8, TableSize: 6000, EmbeddingDim: 16, NumDense: 13,
		MultiHot: []int{1, 1, 1, 1, 1, 1, 3, 1},
		ZipfS:    1.10, DriftRate: 0.35, PositiveRate: 0.26, ChurnPerHour: 0.03,
		PaperEMTBytes: 19 * gb / 10, PaperSamples: 45_800_000,
		RequestsPer5Min: 100_000_000, UpdateRatio10Min: 0.10,
		TrainBytesPer5Min: 25 * gb,
	}
	bdtb := Profile{
		Name:      "BD-TB",
		NumTables: 10, TableSize: 8000, EmbeddingDim: 16, NumDense: 16,
		MultiHot: []int{1, 1, 1, 1, 1, 2, 1, 1, 4, 1},
		ZipfS:    1.15, DriftRate: 0.45, PositiveRate: 0.12, ChurnPerHour: 0.05,
		PaperEMTBytes: 50 * tb, PaperSamples: 5_000_000_000,
		RequestsPer5Min: 100_000_000, UpdateRatio10Min: 0.11,
		TrainBytesPer5Min: 25 * gb,
	}
	avazuTB := avazu
	avazuTB.Name = "Avazu-TB"
	avazuTB.PaperEMTBytes = 50 * tb
	avazuTB.PaperSamples = 5_000_000_000
	avazuTB.UpdateRatio10Min = 0.09

	criteoTB := criteo
	criteoTB.Name = "Criteo-TB"
	criteoTB.PaperEMTBytes = 50 * tb
	criteoTB.PaperSamples = 5_000_000_000
	criteoTB.UpdateRatio10Min = 0.10

	return map[string]Profile{
		"avazu":     avazu,
		"criteo":    criteo,
		"bd-tb":     bdtb,
		"avazu-tb":  avazuTB,
		"criteo-tb": criteoTB,
	}
}

// ProfileByName returns the named profile or an error listing valid names.
func ProfileByName(name string) (Profile, error) {
	p, ok := Profiles()[name]
	if !ok {
		return Profile{}, fmt.Errorf("trace: unknown profile %q (valid: avazu, criteo, bd-tb, avazu-tb, criteo-tb)", name)
	}
	return p, nil
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	switch {
	case p.NumTables <= 0:
		return fmt.Errorf("trace: profile %s: NumTables must be positive", p.Name)
	case p.TableSize <= 0:
		return fmt.Errorf("trace: profile %s: TableSize must be positive", p.Name)
	case p.EmbeddingDim <= 0:
		return fmt.Errorf("trace: profile %s: EmbeddingDim must be positive", p.Name)
	case len(p.MultiHot) != p.NumTables:
		return fmt.Errorf("trace: profile %s: MultiHot length %d != NumTables %d",
			p.Name, len(p.MultiHot), p.NumTables)
	case p.PositiveRate <= 0 || p.PositiveRate >= 1:
		return fmt.Errorf("trace: profile %s: PositiveRate must be in (0,1)", p.Name)
	case p.ZipfS <= 0:
		return fmt.Errorf("trace: profile %s: ZipfS must be positive", p.Name)
	}
	for i, h := range p.MultiHot {
		if h <= 0 {
			return fmt.Errorf("trace: profile %s: MultiHot[%d] must be positive", p.Name, i)
		}
	}
	return nil
}

// TotalEmbeddingRows returns the laptop-scale total row count across tables.
func (p Profile) TotalEmbeddingRows() int { return p.NumTables * p.TableSize }

// DiurnalLoadFactor returns the relative request-rate multiplier at hourOfDay
// in [0, 24). The curve mimics the production utilization shape in paper
// Fig 4: a night trough around 04:00 and an evening peak around 21:00.
func DiurnalLoadFactor(hourOfDay float64) float64 {
	for hourOfDay < 0 {
		hourOfDay += 24
	}
	for hourOfDay >= 24 {
		hourOfDay -= 24
	}
	// Piecewise-smooth double hump: morning ramp, lunch plateau, evening peak.
	base := 0.35
	morning := gaussianBump(hourOfDay, 11, 3.0, 0.40)
	evening := gaussianBump(hourOfDay, 21, 2.5, 0.65)
	// Wrap the evening bump across midnight so 0-2h still sees decay.
	eveningWrap := gaussianBump(hourOfDay+24, 21, 2.5, 0.65)
	return base + morning + evening + eveningWrap
}

func gaussianBump(x, center, width, height float64) float64 {
	d := (x - center) / width
	return height * math.Exp(-d*d)
}
