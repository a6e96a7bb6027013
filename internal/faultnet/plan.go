// Package faultnet injects deterministic, seed-driven network faults into
// net.Listener/net.Conn pairs. It is the chaos harness for the wire path:
// the same fault classes a production network exhibits — latency spikes,
// connection resets, blackhole stalls, truncated streams, byte corruption —
// reproduced from a fixed seed so a failing run is replayable.
//
// # Fault plans
//
// A Plan is a list of weighted fault clauses parsed from a compact grammar:
//
//	latency(p=0.2,min=1ms,max=20ms); reset(p=0.05); corrupt(p=0.01,bits=3)
//
// Each clause names a fault class with a probability and class-specific
// parameters (see ParsePlan). On every read that delivers inbound bytes the
// connection rolls its private RNG against the clauses in plan order; the
// first clause whose probability fires wins. Empty reads never roll — see
// faultConn.Read for why that restriction carries the no-duplicates guarantee.
//
// # Determinism
//
// Every wrapped connection owns an RNG seeded from (plan seed, connection
// serial number), so the fault sequence a connection experiences is a pure
// function of the seed and its position in accept order. Replaying a failing
// run therefore needs only the seed: with the same client behavior the same
// connections hit the same faults. (Exact fault positions within a
// connection depend on how the OS chunks reads, so replay fidelity is
// per-connection fault sequence, not byte offset.)
//
// # Direction
//
// Listener-side plans fault only the inbound (read) half of a connection:
// a request can be delayed, reset, stalled, truncated, or corrupted on its
// way in, but once it has reached the serving stack its response always
// goes back out untouched. Faults therefore move requests — forcing client
// retries — without ever duplicating a served request, which is what keeps
// virtual-time statistics bit-identical to a fault-free run.
package faultnet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Class is a fault kind.
type Class uint8

const (
	// faultLatency delays a read by a uniform duration in [Min, Max].
	faultLatency Class = iota
	// faultReset closes the connection abruptly mid-read.
	faultReset
	// faultBlackhole stalls a read for Stall, then kills the connection — the
	// peer that answers nothing, as opposed to the peer that says no.
	faultBlackhole
	// faultTruncate delivers at most Bytes bytes of the pending read, then kills
	// the connection: a frame cut mid-stream.
	faultTruncate
	// faultCorrupt flips Bits random bits in the delivered read buffer.
	faultCorrupt

	numClasses = 5
)

// Classes lists every fault class in plan-grammar order.
func Classes() []Class {
	return []Class{faultLatency, faultReset, faultBlackhole, faultTruncate, faultCorrupt}
}

// String returns the grammar name of the class.
func (c Class) String() string {
	switch c {
	case faultLatency:
		return "latency"
	case faultReset:
		return "reset"
	case faultBlackhole:
		return "blackhole"
	case faultTruncate:
		return "truncate"
	case faultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// fault is one weighted clause of a Plan.
type fault struct {
	Class Class

	// P is the probability that this fault fires on one read operation,
	// in [0, 1]. Clauses are evaluated in plan order; the first hit wins.
	P float64

	// Min/Max bound the injected delay (latency only).
	Min, Max time.Duration

	// Stall is how long a blackhole read hangs before the connection dies.
	Stall time.Duration

	// Bytes is the most a truncate read delivers before the cut. 0 means
	// half of whatever the read returned (at least one byte short).
	Bytes int

	// Bits is how many bit flips a corrupt fault applies (corrupt only).
	Bits int
}

// Per-class defaults, applied by ParsePlan when a clause omits the knob.
const (
	defaultP     = 0.05
	defaultMin   = time.Millisecond
	defaultMax   = 20 * time.Millisecond
	defaultStall = 50 * time.Millisecond
	defaultBits  = 3
)

// Plan is a named, seeded fault-injection schedule.
type Plan struct {
	// Name labels the plan in logs and reports (ParsePlan uses the raw
	// clause string).
	Name string

	// Seed drives every per-connection RNG. Two runs with the same seed and
	// the same connection order inject the same faults.
	Seed uint64

	// Faults are the weighted clauses, evaluated in order on every read.
	Faults []fault
}

// Enabled reports whether the plan injects anything.
func (p Plan) Enabled() bool { return len(p.Faults) > 0 }

// String renders the plan back into the ParsePlan grammar (canonical form:
// every knob explicit). ParsePlan(p.String()) is a fixed point.
func (p Plan) String() string {
	clauses := make([]string, 0, len(p.Faults))
	for _, f := range p.Faults {
		switch f.Class {
		case faultLatency:
			clauses = append(clauses, fmt.Sprintf("latency(p=%s,min=%s,max=%s)", ftoa(f.P), f.Min, f.Max))
		case faultReset:
			clauses = append(clauses, fmt.Sprintf("reset(p=%s)", ftoa(f.P)))
		case faultBlackhole:
			clauses = append(clauses, fmt.Sprintf("blackhole(p=%s,stall=%s)", ftoa(f.P), f.Stall))
		case faultTruncate:
			clauses = append(clauses, fmt.Sprintf("truncate(p=%s,bytes=%d)", ftoa(f.P), f.Bytes))
		case faultCorrupt:
			clauses = append(clauses, fmt.Sprintf("corrupt(p=%s,bits=%d)", ftoa(f.P), f.Bits))
		}
	}
	return strings.Join(clauses, ";")
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParsePlan parses the fault-plan grammar:
//
//	plan   := clause (';' clause)*
//	clause := class [ '(' key '=' value (',' key '=' value)* ')' ]
//	class  := latency | reset | blackhole | truncate | corrupt
//
// Keys: p (probability per read, default 0.05), min/max (latency delay
// bounds, Go durations, default 1ms/20ms), stall (blackhole hang, default
// 50ms), bytes (truncate delivery cap, default 0 = half the read), bits
// (corrupt bit flips, default 3). A bare class name takes every default:
// "reset" == "reset(p=0.05)". An empty string parses to a disabled Plan.
//
// Every value is validated: probabilities must sit in [0, 1], durations must
// be non-negative with min <= max, bits in [1, 64] — hostile or mistyped
// plans fail loudly instead of silently injecting nothing.
func ParsePlan(s string) (Plan, error) {
	plan := Plan{Name: strings.TrimSpace(s)}
	if plan.Name == "" {
		return Plan{}, nil
	}
	for _, rawClause := range strings.Split(s, ";") {
		clause := strings.TrimSpace(rawClause)
		if clause == "" {
			continue
		}
		name, args := clause, ""
		if i := strings.IndexByte(clause, '('); i >= 0 {
			if !strings.HasSuffix(clause, ")") {
				return Plan{}, fmt.Errorf("faultnet: clause %q: missing ')'", clause)
			}
			name, args = strings.TrimSpace(clause[:i]), clause[i+1:len(clause)-1]
		}
		f, err := newFault(name)
		if err != nil {
			return Plan{}, err
		}
		if err := parseArgs(&f, args); err != nil {
			return Plan{}, fmt.Errorf("faultnet: clause %q: %w", clause, err)
		}
		if err := validateFault(f); err != nil {
			return Plan{}, fmt.Errorf("faultnet: clause %q: %w", clause, err)
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return Plan{}, fmt.Errorf("faultnet: plan %q has no clauses", s)
	}
	return plan, nil
}

func newFault(name string) (fault, error) {
	f := fault{P: defaultP, Min: defaultMin, Max: defaultMax, Stall: defaultStall, Bits: defaultBits}
	for _, c := range Classes() {
		if name == c.String() {
			f.Class = c
			return f, nil
		}
	}
	names := make([]string, 0, numClasses)
	for _, c := range Classes() {
		names = append(names, c.String())
	}
	sort.Strings(names)
	return f, fmt.Errorf("faultnet: unknown fault class %q (valid: %s)", name, strings.Join(names, ", "))
}

func parseArgs(f *fault, args string) error {
	if strings.TrimSpace(args) == "" {
		return nil
	}
	for _, kv := range strings.Split(args, ",") {
		kv = strings.TrimSpace(kv)
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("argument %q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "p":
			f.P, err = strconv.ParseFloat(val, 64)
		case "min":
			f.Min, err = time.ParseDuration(val)
		case "max":
			f.Max, err = time.ParseDuration(val)
		case "stall":
			f.Stall, err = time.ParseDuration(val)
		case "bytes":
			f.Bytes, err = strconv.Atoi(val)
		case "bits":
			f.Bits, err = strconv.Atoi(val)
		default:
			return fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return fmt.Errorf("bad value for %s: %v", key, err)
		}
	}
	return nil
}

func validateFault(f fault) error {
	switch {
	case f.P < 0 || f.P > 1 || f.P != f.P: // the last term rejects NaN
		return fmt.Errorf("probability p=%v outside [0,1]", f.P)
	case f.Min < 0 || f.Max < 0:
		return fmt.Errorf("negative delay bounds min=%v max=%v", f.Min, f.Max)
	case f.Min > f.Max:
		return fmt.Errorf("min=%v exceeds max=%v", f.Min, f.Max)
	case f.Stall < 0:
		return fmt.Errorf("negative stall %v", f.Stall)
	case f.Bytes < 0:
		return fmt.Errorf("negative truncate bytes %d", f.Bytes)
	case f.Bits < 1 || f.Bits > 64:
		return fmt.Errorf("corrupt bits %d outside [1,64]", f.Bits)
	}
	return nil
}

// injectedError is the error every injected connection kill surfaces —
// errors.As against it distinguishes harness faults from real ones.
type injectedError struct {
	Class Class
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("faultnet: injected %s fault", e.Class)
}

// Timeout makes blackhole faults look like net timeouts to callers that
// inspect net.Error.
func (e *injectedError) Timeout() bool { return e.Class == faultBlackhole }

// Temporary is true: every injected fault is transient by construction.
func (e *injectedError) Temporary() bool { return true }
