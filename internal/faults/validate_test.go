package faults

import (
	"errors"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

func namedPaths(eng *sim.Engine, names ...string) []*netem.Path {
	out := make([]*netem.Path, len(names))
	for i, name := range names {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name + "-fwd", Rate: 10 * netem.Mbps, Delay: sim.Millisecond})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "-rev", Rate: 10 * netem.Mbps, Delay: sim.Millisecond})
		out[i] = &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	return out
}

func TestValidate(t *testing.T) {
	eng := sim.NewEngine(1)
	paths := namedPaths(eng, "wifi", "lte")
	horizon := 10 * sim.Second

	cases := []struct {
		name    string
		spec    string
		horizon sim.Time
		wantErr error
	}{
		{"ok in-window", "wifi:down@2s,up@5s", horizon, nil},
		{"ok by index", "path1:loss@3s=0.05", horizon, nil},
		{"ok bare index", "0:rate@1s=2Mbps", horizon, nil},
		{"unknown name", "dsl:down@2s", horizon, ErrUnknownTarget},
		{"index out of range", "path7:down@2s", horizon, ErrUnknownTarget},
		{"outage past horizon", "wifi:down@12s", horizon, ErrPastHorizon},
		{"up past horizon", "wifi:up@10s", horizon, ErrPastHorizon},
		{"loss at horizon", "wifi:loss@10s=0.5", horizon, ErrPastHorizon},
		{"flap past horizon", "lte:flap@11s+4s/1s", horizon, ErrPastHorizon},
		{"delay past horizon", "lte:delay@20s=50ms", horizon, ErrPastHorizon},
		{"ok ramp ending past horizon", "wifi:ramp@8s+4s=1Mbps/100ms", horizon, nil},
		{"ramp past horizon", "wifi:ramp@10s+1s=1Mbps/100ms", horizon, ErrPastHorizon},
		{"no horizon check when zero", "wifi:down@12s", 0, nil},
		{"unknown target beats horizon skip", "dsl:down@12s", 0, ErrUnknownTarget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pfs, err := Parse(tc.spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.spec, err)
			}
			err = Validate(pfs, paths, tc.horizon)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate(%q) = %v, want nil", tc.spec, err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate(%q) = %v, want %v", tc.spec, err, tc.wantErr)
			}
		})
	}
}

// TestResolveNamedError pins that Resolve itself wraps ErrUnknownTarget, so
// CLI callers that bypass Validate still get a matchable error.
func TestResolveNamedError(t *testing.T) {
	eng := sim.NewEngine(1)
	paths := namedPaths(eng, "wifi")
	if _, err := Resolve("nope", paths); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("Resolve unknown = %v, want ErrUnknownTarget", err)
	}
	if p, err := Resolve("wifi", paths); err != nil || p != paths[0] {
		t.Fatalf("Resolve(wifi) = %v, %v", p, err)
	}
}

// TestFaultWindow pins the per-type activity windows Validate relies on.
func TestFaultWindow(t *testing.T) {
	cases := []struct {
		f          Fault
		start, end sim.Time
	}{
		{Outage{Down: 2 * sim.Second, Up: 5 * sim.Second}, 2 * sim.Second, 5 * sim.Second},
		{Outage{Down: 2 * sim.Second}, 2 * sim.Second, 2 * sim.Second},
		{LinkUp{At: sim.Second}, sim.Second, sim.Second},
		{Flap{Start: sim.Second, Period: 4 * sim.Second, DownFor: sim.Second, Count: 3},
			sim.Second, sim.Second + 2*4*sim.Second + sim.Second},
		{Flap{Start: sim.Second, Period: 4 * sim.Second, DownFor: sim.Second}, sim.Second, horizonForever},
		{Ramp{Start: sim.Second, Duration: 2 * sim.Second}, sim.Second, 3 * sim.Second},
		{SetLoss{At: sim.Second}, sim.Second, sim.Second},
		{SetRate{At: sim.Second}, sim.Second, sim.Second},
		{SetDelay{At: sim.Second}, sim.Second, sim.Second},
	}
	for _, tc := range cases {
		start, end := faultWindow(tc.f)
		if start != tc.start || end != tc.end {
			t.Errorf("faultWindow(%#v) = (%v, %v), want (%v, %v)", tc.f, start, end, tc.start, tc.end)
		}
	}
}
