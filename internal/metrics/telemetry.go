package metrics

import "io"

// TelemetryConfig selects which telemetry surfaces are live.
type TelemetryConfig struct {
	// SampleEvery traces 1 in N stage timings (1 = every request). 0 or
	// negative disables stage tracing entirely; the metrics registry is
	// always on.
	SampleEvery int

	// SpanRing is the span ring capacity, rounded up to a power of two.
	// 0 means the default (4096 spans).
	SpanRing int

	// Pprof exposes net/http/pprof handlers on gateways serving this
	// telemetry. Off by default: profiling endpoints are a debug surface.
	Pprof bool
}

// Telemetry bundles a metrics registry with an optional stage tracer. A nil
// *Telemetry is valid everywhere and means "telemetry off": the accessors
// return nil, and nil tracers/instruments no-op.
type Telemetry struct {
	cfg    TelemetryConfig
	reg    *Registry
	tracer *Tracer
}

// NewTelemetry builds a Telemetry from cfg. The registry is always created;
// the tracer only when cfg.SampleEvery > 0.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	t := &Telemetry{cfg: cfg, reg: newRegistry()}
	if cfg.SampleEvery > 0 {
		t.tracer = newTracer(cfg.SampleEvery, cfg.SpanRing)
	}
	return t
}

// Config returns the configuration this Telemetry was built with.
func (t *Telemetry) Config() TelemetryConfig {
	if t == nil {
		return TelemetryConfig{}
	}
	return t.cfg
}

// Registry returns the metrics registry, or nil on a nil Telemetry.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the stage tracer. Nil on a nil Telemetry or when tracing is
// disabled — and a nil *Tracer is itself safe to call.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// WriteMetrics renders every registered instrument in Prometheus text
// exposition format.
func (t *Telemetry) WriteMetrics(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writePrometheus(w, t.reg.snapshot())
}

// WriteVars renders the registry as an expvar-style JSON object.
func (t *Telemetry) WriteVars(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	return writeVars(w, t.reg.snapshot())
}

// WriteTrace dumps the span ring as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *Telemetry) WriteTrace(w io.Writer) error {
	return writeChromeTrace(w, t.Tracer())
}
