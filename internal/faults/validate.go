package faults

import (
	"errors"
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// Named validation errors. Callers match them with errors.Is to distinguish
// a bad schedule from other setup failures.
var (
	// ErrUnknownTarget: a clause names a path absent from the topology.
	ErrUnknownTarget = errors.New("faults: unknown target path")
	// ErrPastHorizon: a fault only acts at or after the scenario horizon,
	// so it could never fire — almost always a typo in the schedule.
	ErrPastHorizon = errors.New("faults: schedule extends past horizon")
)

// start and end report the window in which a fault acts. end is the instant
// of its last state change; endless faults (unbounded flaps, chains with
// End = 0) return horizonForever.
const horizonForever = sim.Time(-1)

func faultWindow(f Fault) (start, end sim.Time) {
	switch f := f.(type) {
	case Outage:
		if f.Up > f.Down {
			return f.Down, f.Up
		}
		return f.Down, f.Down
	case LinkUp:
		return f.At, f.At
	case Flap:
		if f.Count <= 0 {
			return f.Start, horizonForever
		}
		return f.Start, f.Start + sim.Time(f.Count-1)*f.Period + f.DownFor
	case Ramp:
		return f.Start, f.Start + f.Duration
	case SetLoss:
		return f.At, f.At
	case SetRate:
		return f.At, f.At
	case SetDelay:
		return f.At, f.At
	default:
		return 0, horizonForever
	}
}

// Validate checks parsed fault clauses against the scenario they will run
// in: every target must resolve in paths, and every fault must start before
// horizon (a fault whose first action is at or past the horizon would
// silently never fire). horizon <= 0 skips the horizon check. It returns
// the first problem found, wrapping ErrUnknownTarget or ErrPastHorizon.
func Validate(pfs []PathFaults, paths []*netem.Path, horizon sim.Time) error {
	for _, pf := range pfs {
		if _, err := Resolve(pf.Target, paths); err != nil {
			return err
		}
		if horizon <= 0 {
			continue
		}
		for _, f := range pf.Faults {
			start, _ := faultWindow(f)
			if start >= horizon {
				return fmt.Errorf("%w: %s fault %s starts at %.3fs, horizon is %.3fs",
					ErrPastHorizon, pf.Target, describe(f), start.Seconds(), horizon.Seconds())
			}
		}
	}
	return nil
}

// Install schedules a fault spec in the Parse grammar against the scenario it
// will run in: parse, Validate against paths and horizon, resolve each
// clause's target and Apply its faults. An empty spec installs nothing.
func Install(eng *sim.Engine, spec string, paths []*netem.Path, horizon sim.Time) error {
	if spec == "" {
		return nil
	}
	pfs, err := Parse(spec)
	if err != nil {
		return err
	}
	if err := Validate(pfs, paths, horizon); err != nil {
		return err
	}
	for _, pf := range pfs {
		p, _ := Resolve(pf.Target, paths) // Validate resolved it already
		Apply(eng, p, pf.Faults...)
	}
	return nil
}

// describe names a fault for error messages without dumping its full struct.
func describe(f Fault) string {
	switch f.(type) {
	case Outage:
		return "outage"
	case LinkUp:
		return "up"
	case Flap:
		return "flap"
	case Ramp:
		return "ramp"
	case SetLoss:
		return "loss"
	case SetRate:
		return "rate"
	case SetDelay:
		return "delay"
	default:
		return fmt.Sprintf("%T", f)
	}
}
