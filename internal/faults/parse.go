package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// PathFaults is one parsed clause of a fault spec: the faults to apply to
// one named path.
type PathFaults struct {
	Target string
	Faults []Fault
}

// Directives lists the directive kinds of the Parse grammar.
var Directives = []string{"down", "up", "flap", "ramp", "loss", "rate", "delay"}

// Parse turns a command-line fault spec into per-path fault lists. The
// grammar, clauses separated by ';':
//
//	clause    = target ':' directive (',' directive)*
//	target    = path name, "pathN", or a bare index
//	directive = "down@T" | "up@T"            (paired in order; an unpaired
//	                                          down is a permanent outage)
//	          | "flap@START+PERIOD/DOWNFOR"  (e.g. flap@2s+4s/1s)
//	          | "ramp@START+DUR=RATE/DELAY"  (e.g. ramp@5s+10s=1Mbps/100ms:
//	                                          rate and delay move linearly
//	                                          to the targets over DUR)
//	          | "loss@T=P"                   (e.g. loss@3s=0.05)
//	          | "rate@T=R"                   (e.g. rate@5s=2Mbps)
//	          | "delay@T=D"                  (e.g. delay@5s=150ms)
//
// Times and durations use Go duration syntax; rates accept Kbps/Mbps/Gbps
// suffixes or plain bits per second.
//
//	-fault "path1:down@2s,up@5s"
//	-fault "wifi:rate@5s=2Mbps,delay@5s=150ms;lte:flap@1s+6s/500ms"
//	-fault "wifi:ramp@5s+5s=1Mbps/100ms,down@10s,up@20s,ramp@20s+3s=10Mbps/20ms"
func Parse(spec string) ([]PathFaults, error) {
	var out []PathFaults
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		target, rest, ok := strings.Cut(clause, ":")
		target = strings.TrimSpace(target)
		if !ok || target == "" || strings.TrimSpace(rest) == "" {
			return nil, fmt.Errorf("faults: clause %q is not target:directives", clause)
		}
		pf := PathFaults{Target: target}
		var openDown sim.Time
		haveDown := false
		flushDown := func() {
			if haveDown {
				pf.Faults = append(pf.Faults, Outage{Down: openDown})
				haveDown = false
			}
		}
		for _, d := range strings.Split(rest, ",") {
			d = strings.TrimSpace(d)
			kind, arg, ok := strings.Cut(d, "@")
			if !ok {
				return nil, fmt.Errorf("faults: directive %q has no @time", d)
			}
			switch kind {
			case "down":
				flushDown()
				t, err := parseTime(arg)
				if err != nil {
					return nil, fmt.Errorf("faults: %q: %v", d, err)
				}
				openDown, haveDown = t, true
			case "up":
				t, err := parseTime(arg)
				if err != nil {
					return nil, fmt.Errorf("faults: %q: %v", d, err)
				}
				if haveDown {
					if t <= openDown {
						return nil, fmt.Errorf("faults: up@%s not after down@%s", arg, openDown.Duration())
					}
					pf.Faults = append(pf.Faults, Outage{Down: openDown, Up: t})
					haveDown = false
				} else {
					pf.Faults = append(pf.Faults, LinkUp{At: t})
				}
			case "flap":
				f, err := parseFlap(arg)
				if err != nil {
					return nil, fmt.Errorf("faults: %q: %v", d, err)
				}
				pf.Faults = append(pf.Faults, f)
			case "ramp":
				r, err := parseRamp(arg)
				if err != nil {
					return nil, fmt.Errorf("faults: %q: %v", d, err)
				}
				pf.Faults = append(pf.Faults, r)
			case "loss", "rate", "delay":
				at, val, ok := strings.Cut(arg, "=")
				if !ok {
					return nil, fmt.Errorf("faults: directive %q needs @time=value", d)
				}
				t, err := parseTime(at)
				if err != nil {
					return nil, fmt.Errorf("faults: %q: %v", d, err)
				}
				switch kind {
				case "loss":
					p, err := strconv.ParseFloat(val, 64)
					if err != nil || p < 0 || p > 1 {
						return nil, fmt.Errorf("faults: %q: loss probability must be in [0,1]", d)
					}
					pf.Faults = append(pf.Faults, SetLoss{At: t, Prob: p})
				case "rate":
					r, err := ParseRate(val)
					if err != nil {
						return nil, fmt.Errorf("faults: %q: %v", d, err)
					}
					pf.Faults = append(pf.Faults, SetRate{At: t, Rate: r})
				case "delay":
					dur, err := parseTime(val)
					if err != nil {
						return nil, fmt.Errorf("faults: %q: %v", d, err)
					}
					pf.Faults = append(pf.Faults, SetDelay{At: t, Delay: dur})
				}
			default:
				return nil, fmt.Errorf("faults: unknown directive %q (want %s)", kind, strings.Join(Directives, "/"))
			}
		}
		flushDown()
		out = append(out, pf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faults: empty spec")
	}
	return out, nil
}

// parseFlap parses START+PERIOD/DOWNFOR.
func parseFlap(arg string) (Flap, error) {
	start, rest, ok := strings.Cut(arg, "+")
	if !ok {
		return Flap{}, fmt.Errorf("flap wants START+PERIOD/DOWNFOR")
	}
	period, downFor, ok := strings.Cut(rest, "/")
	if !ok {
		return Flap{}, fmt.Errorf("flap wants START+PERIOD/DOWNFOR")
	}
	s, err := parseTime(start)
	if err != nil {
		return Flap{}, err
	}
	p, err := parseTime(period)
	if err != nil {
		return Flap{}, err
	}
	d, err := parseTime(downFor)
	if err != nil {
		return Flap{}, err
	}
	if d <= 0 || d >= p {
		return Flap{}, fmt.Errorf("flap down time %v must be positive and below the period %v", d.Duration(), p.Duration())
	}
	return Flap{Start: s, Period: p, DownFor: d}, nil
}

// parseRamp parses START+DUR=RATE/DELAY.
func parseRamp(arg string) (Ramp, error) {
	window, targets, ok := strings.Cut(arg, "=")
	start, dur, okWindow := strings.Cut(window, "+")
	rate, delay, okTargets := strings.Cut(targets, "/")
	if !ok || !okWindow || !okTargets {
		return Ramp{}, fmt.Errorf("ramp wants START+DUR=RATE/DELAY")
	}
	var r Ramp
	var err error
	if r.Start, err = parseTime(start); err != nil {
		return Ramp{}, err
	}
	if r.Duration, err = parseTime(dur); err != nil {
		return Ramp{}, err
	}
	if r.RateTo, err = ParseRate(rate); err != nil {
		return Ramp{}, err
	}
	if r.DelayTo, err = parseTime(delay); err != nil {
		return Ramp{}, err
	}
	if r.Duration <= 0 || r.DelayTo <= 0 {
		return Ramp{}, fmt.Errorf("ramp duration %v and delay target %v must be positive", r.Duration.Duration(), r.DelayTo.Duration())
	}
	return r, nil
}

func parseTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative time %v", d)
	}
	return sim.FromDuration(d), nil
}

// ParseRate parses a bandwidth with an optional Kbps/Mbps/Gbps suffix
// (case-insensitive); a bare number is bits per second.
func ParseRate(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	lower := strings.ToLower(s)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"kbps", netem.Kbps}, {"mbps", netem.Mbps}, {"gbps", netem.Gbps}, {"bps", 1}} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			s = s[:len(s)-len(u.suffix)]
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	// Fractional rates below one bit per second truncate to zero, which
	// would divide-by-zero the link's serialization time.
	r := int64(v * float64(mult))
	if r < 1 {
		return 0, fmt.Errorf("rate %q is below 1 bps", s)
	}
	return r, nil
}

// Resolve matches a parsed clause target against a path list: by exact path
// name, by "pathN", or by bare index.
func Resolve(target string, paths []*netem.Path) (*netem.Path, error) {
	for _, p := range paths {
		if p.Name == target {
			return p, nil
		}
	}
	idxStr := strings.TrimPrefix(target, "path")
	if idx, err := strconv.Atoi(idxStr); err == nil && idx >= 0 && idx < len(paths) {
		return paths[idx], nil
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = fmt.Sprintf("%s (path%d)", p.Name, i)
	}
	return nil, fmt.Errorf("%w: no path %q; have %s", ErrUnknownTarget, target, strings.Join(names, ", "))
}
