// Package fleet is the chaos-script grammar for an elastic replica fleet:
// scripted membership events (kill, replace, join, leave, scale) at virtual
// timestamps, parsed from the -chaos flag syntax. The membership itself —
// the replica set, catch-up, and the consistent-hash ring — lives in
// internal/cluster, which applies each Event through Cluster.ApplyChaos.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Chaos schedules: scripted membership events at virtual timestamps, so a
// single load-driver run can exercise kill/replace/rescale under load. The
// driver evaluates the schedule at deterministic drain points (see
// internal/driver), which makes a fixed (seed, schedule) pair reproduce the
// same event sequence at the same request indices for any worker count.

// Action names a membership event kind.
type Action string

const (
	// Kill fails the member in a slot immediately (the crash path).
	Kill Action = "kill"
	// Replace fails the member in a slot and admits a freshly caught-up
	// replica into the same slot (refilling an already-empty slot works too).
	Replace Action = "replace"
	// Join admits one replica into the first empty slot, or a new one.
	Join Action = "join"
	// Leave retires the member in a slot gracefully.
	Leave Action = "leave"
	// Scale grows or shrinks the active fleet to Arg members.
	Scale Action = "scale"
)

// actions lists the chaos actions in presentation order.
func actions() []Action { return []Action{Kill, Replace, Join, Leave, Scale} }

// Event is one scripted membership change.
type Event struct {
	// At is the virtual timestamp: the event fires once the fleet's virtual
	// clock reaches it.
	At time.Duration
	// Action is the membership change to apply.
	Action Action
	// Arg is the action's operand: the slot for kill/replace/leave, the
	// target fleet size for scale; unused for join.
	Arg int
}

// Validate reports event errors.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("fleet: chaos event %q at negative time %v", e.Action, e.At)
	}
	switch e.Action {
	case Kill, Replace, Leave:
		if e.Arg < 0 {
			return fmt.Errorf("fleet: chaos %s needs a slot >= 0, got %d", e.Action, e.Arg)
		}
	case Scale:
		if e.Arg < 1 {
			return fmt.Errorf("fleet: chaos scale needs a fleet size >= 1, got %d", e.Arg)
		}
	case Join:
		// no operand
	default:
		return fmt.Errorf("fleet: unknown chaos action %q (valid: %v)", e.Action, actions())
	}
	return nil
}

// String renders the event in script form ("@1.5s kill 2").
func (e Event) String() string {
	if e.Action == Join {
		return fmt.Sprintf("@%v %s", e.At, e.Action)
	}
	return fmt.Sprintf("@%v %s %d", e.At, e.Action, e.Arg)
}

// Schedule is an ordered set of chaos events.
type Schedule []Event

// Validate reports the first invalid event.
func (s Schedule) Validate() error {
	for i, e := range s {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Sorted returns a copy ordered by timestamp; events at the same timestamp
// keep their script order (stable sort), so "kill 1; replace 1" at one
// instant applies in the written order.
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the schedule in script form.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// ParseScript parses a chaos script: events separated by ';', each of the
// form "@<duration> <action> [arg]" (the '@' is optional). Durations use Go
// syntax ("500ms", "2s") and are virtual time. Examples:
//
//	@2s kill 1; @4s replace 1; @6s scale 6
//	500ms join; 1s leave 0
func ParseScript(src string) (Schedule, error) {
	var out Schedule
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) < 2 {
			return nil, fmt.Errorf("fleet: chaos event %q: want \"@<time> <action> [arg]\"", part)
		}
		at, err := time.ParseDuration(strings.TrimPrefix(fields[0], "@"))
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos event %q: bad timestamp: %w", part, err)
		}
		ev := Event{At: at, Action: Action(fields[1])}
		switch {
		case ev.Action == Join && len(fields) == 2:
			// join takes no operand
		case ev.Action != Join && len(fields) == 3:
			arg, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("fleet: chaos event %q: bad operand: %w", part, err)
			}
			ev.Arg = arg
		default:
			return nil, fmt.Errorf("fleet: chaos event %q: wrong operand count for %q", part, ev.Action)
		}
		if err := ev.Validate(); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty chaos script %q", src)
	}
	return out, nil
}
