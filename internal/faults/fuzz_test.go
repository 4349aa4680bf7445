package faults

import (
	"errors"
	"testing"

	"mptcpsim/internal/sim"
)

// FuzzParse feeds arbitrary fault specs to the command-line parser. Parse
// must never panic, and anything it accepts must be usable: at least one
// clause, every clause with a non-empty target and at least one fault.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"path1:down@2s,up@5s",
		"wifi:rate@5s=2Mbps,delay@5s=150ms;lte:flap@1s+6s/500ms",
		"path0:loss@3s=0.05",
		"0:down@1s",
		"p:up@0s;p:down@1s,down@2s",
		"path0:flap@2s+4s/1s",
		"wifi:ramp@5s+5s=1Mbps/100ms,down@10s,up@20s,ramp@20s+3s=10Mbps/20ms",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pfs, err := Parse(spec)
		if err != nil {
			return
		}
		if len(pfs) == 0 {
			t.Fatalf("Parse(%q) accepted an empty schedule", spec)
		}
		for _, pf := range pfs {
			if pf.Target == "" {
				t.Fatalf("Parse(%q) accepted a clause with an empty target", spec)
			}
			if len(pf.Faults) == 0 {
				t.Fatalf("Parse(%q) accepted clause %q with no faults", spec, pf.Target)
			}
		}
	})
}

// FuzzParseRate checks the bandwidth parser: no panics, and every accepted
// rate is strictly positive (a zero or negative line rate would wedge the
// link's transmission-time arithmetic).
func FuzzParseRate(f *testing.F) {
	for _, s := range []string{"2Mbps", "250kbps", "1.5Gbps", "9600", "10bps", "-1Mbps"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRate(s)
		if err != nil {
			return
		}
		if r <= 0 {
			t.Fatalf("ParseRate(%q) accepted non-positive rate %d", s, r)
		}
	})
}

// FuzzValidate drives the schedule validator with arbitrary specs against a
// fixed two-path topology. Validate must never panic, and any error it
// returns must be one of the named sentinels so callers can match it.
func FuzzValidate(f *testing.F) {
	for _, spec := range []string{
		"wifi:down@2s,up@5s",           // valid, in window
		"dsl:down@2s",                  // ErrUnknownTarget: no such name
		"path7:down@2s",                // ErrUnknownTarget: index out of range
		"wifi:down@12s",                // ErrPastHorizon: outage after horizon
		"wifi:loss@10s=0.5",            // ErrPastHorizon: exactly at horizon
		"lte:flap@11s+4s/1s",           // ErrPastHorizon: flap starts late
		"lte:delay@20s=50ms",           // ErrPastHorizon: delay change after end
		"0:rate@1s=2Mbps",              // valid, bare-index target
		"wifi:ramp@9s+5s=1Mbps/100ms",  // valid: starts in window, ends after it
		"wifi:ramp@10s+5s=1Mbps/100ms", // ErrPastHorizon: ramp starts at horizon
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pfs, err := Parse(spec)
		if err != nil {
			return
		}
		eng := sim.NewEngine(1)
		paths := namedPaths(eng, "wifi", "lte")
		verr := Validate(pfs, paths, 10*sim.Second)
		if verr != nil && !errors.Is(verr, ErrUnknownTarget) && !errors.Is(verr, ErrPastHorizon) {
			t.Fatalf("Validate(%q) returned unnamed error %v", spec, verr)
		}
	})
}
