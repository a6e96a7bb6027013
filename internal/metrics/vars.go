package metrics

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
)

// expvar-style JSON export. The stdlib expvar package publishes into one
// process-global registry and panics on duplicate names, which breaks as
// soon as two Gateways (or two tests) exist in one process — so this is a
// per-registry renderer with expvar's shape instead: a flat JSON object,
// plus the customary "memstats" block.

func writeVars(w io.Writer, snapshot []metricSnapshot) error {
	vars := make(map[string]any, len(snapshot)+1)
	for _, m := range snapshot {
		if m.Hist != nil {
			vars[m.Name] = map[string]any{
				"count":   m.Hist.Count,
				"sum":     jsonSafe(m.Hist.Sum),
				"buckets": m.Hist.Buckets,
				"min":     jsonSafe(m.Hist.Min),
				"max":     jsonSafe(m.Hist.Max),
			}
			continue
		}
		vars[m.Name] = jsonSafe(m.Value)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vars["memstats"] = map[string]any{
		"Alloc":      ms.Alloc,
		"TotalAlloc": ms.TotalAlloc,
		"Sys":        ms.Sys,
		"HeapAlloc":  ms.HeapAlloc,
		"NumGC":      ms.NumGC,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(vars) // map keys marshal sorted: deterministic output
}

// jsonSafe keeps non-finite floats representable: encoding/json rejects NaN
// and ±Inf, so they are rendered as their string names instead.
func jsonSafe(v float64) any {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return v
}
