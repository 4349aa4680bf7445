package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

func twoWayPath(eng *sim.Engine) *netem.Path {
	fwd := netem.NewLink(eng, netem.LinkConfig{Name: "fwd", Rate: 10 * netem.Mbps, Delay: sim.Millisecond})
	rev := netem.NewLink(eng, netem.LinkConfig{Name: "rev", Rate: 10 * netem.Mbps, Delay: sim.Millisecond})
	return &netem.Path{Name: "p", Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
}

func TestOutageDownUp(t *testing.T) {
	eng := sim.NewEngine(1)
	p := twoWayPath(eng)
	Apply(eng, p, Outage{Down: 2 * sim.Second, Up: 5 * sim.Second})

	check := func(at sim.Time, down bool) {
		eng.Schedule(at, func() {
			for _, l := range PathLinks(p) {
				if l.Down() != down {
					t.Errorf("t=%v: link %s Down=%v, want %v", at.Duration(), l.Name(), l.Down(), down)
				}
			}
		})
	}
	check(sim.Second, false)
	check(3*sim.Second, true)
	check(6*sim.Second, false)
	eng.Run(10 * sim.Second)
}

func TestPermanentOutageAndLinkUp(t *testing.T) {
	eng := sim.NewEngine(1)
	p := twoWayPath(eng)
	Apply(eng, p, Outage{Down: sim.Second}) // Up unset: permanent
	Apply(eng, p, LinkUp{At: 4 * sim.Second})
	eng.Schedule(3*sim.Second, func() {
		if !p.Forward[0].Down() {
			t.Error("permanent outage not in effect at t=3s")
		}
	})
	eng.Run(10 * sim.Second)
	if p.Forward[0].Down() {
		t.Error("LinkUp did not revive the permanent outage")
	}
}

func TestFlapCyclesAndCount(t *testing.T) {
	eng := sim.NewEngine(1)
	p := twoWayPath(eng)
	// Down for 1s out of every 4s, starting at t=2: down [2,3), [6,7), done.
	Apply(eng, p, Flap{Start: 2 * sim.Second, Period: 4 * sim.Second, DownFor: sim.Second, Count: 2})
	downAt := func(at sim.Time) bool { return p.Forward[0].Down() }
	var samples []bool
	for _, at := range []sim.Time{sim.Second, 2500 * sim.Millisecond, 4 * sim.Second,
		6500 * sim.Millisecond, 8 * sim.Second, 10500 * sim.Millisecond} {
		at := at
		eng.Schedule(at, func() { samples = append(samples, downAt(at)) })
	}
	eng.Run(12 * sim.Second)
	want := []bool{false, true, false, true, false, false}
	for i, w := range want {
		if samples[i] != w {
			t.Errorf("sample %d: down=%v, want %v (flap must stop after Count cycles)", i, samples[i], w)
		}
	}
}

func TestFlapRejectsBadShape(t *testing.T) {
	eng := sim.NewEngine(1)
	p := twoWayPath(eng)
	// DownFor >= Period would never bring the link up; Schedule must refuse.
	Apply(eng, p, Flap{Start: 0, Period: sim.Second, DownFor: sim.Second})
	eng.Run(5 * sim.Second)
	if p.Forward[0].Down() {
		t.Error("degenerate flap was scheduled")
	}
}

func TestRampInterpolatesRateAndDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	p := twoWayPath(eng)
	Apply(eng, p, Ramp{
		Start: sim.Second, Duration: 2 * sim.Second, Steps: 4,
		RateTo: 2 * netem.Mbps, DelayTo: 101 * sim.Millisecond,
	})
	var midRate int64
	eng.Schedule(2*sim.Second+sim.Millisecond, func() { midRate = p.Forward[0].Rate() })
	eng.Run(5 * sim.Second)
	l := p.Forward[0]
	if l.Rate() != 2*netem.Mbps {
		t.Errorf("final rate = %d, want ramp target %d", l.Rate(), 2*netem.Mbps)
	}
	if l.Delay() != 101*sim.Millisecond {
		t.Errorf("final delay = %v, want ramp target 101ms", l.Delay().Duration())
	}
	if midRate <= 2*netem.Mbps || midRate >= 10*netem.Mbps {
		t.Errorf("mid-ramp rate = %d, want strictly between endpoints", midRate)
	}
}

func TestParseSpec(t *testing.T) {
	pfs, err := Parse("path1:down@2s,up@5s;wifi:flap@1s+6s/500ms,rate@5s=2Mbps,delay@5s=150ms,loss@3s=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if len(pfs) != 2 {
		t.Fatalf("parsed %d clauses, want 2", len(pfs))
	}
	if pfs[0].Target != "path1" || len(pfs[0].Faults) != 1 {
		t.Fatalf("clause 0 = %+v", pfs[0])
	}
	o, ok := pfs[0].Faults[0].(Outage)
	if !ok || o.Down != 2*sim.Second || o.Up != 5*sim.Second {
		t.Errorf("clause 0 fault = %#v, want Outage 2s→5s", pfs[0].Faults[0])
	}
	if pfs[1].Target != "wifi" || len(pfs[1].Faults) != 4 {
		t.Fatalf("clause 1 = %+v", pfs[1])
	}
	f, ok := pfs[1].Faults[0].(Flap)
	if !ok || f.Start != sim.Second || f.Period != 6*sim.Second || f.DownFor != 500*sim.Millisecond {
		t.Errorf("flap = %#v", pfs[1].Faults[0])
	}
	r, ok := pfs[1].Faults[1].(SetRate)
	if !ok || r.Rate != 2*netem.Mbps {
		t.Errorf("rate = %#v", pfs[1].Faults[1])
	}
}

// TestParseRamp: the ramp directive round-trips to the typed Ramp, keeps
// directive order around an outage (the outage is placed where its up@ is
// written, so an up and a ramp at the same instant install in that order),
// and schedules what the typed form schedules.
func TestParseRamp(t *testing.T) {
	const spec = "wifi:ramp@2.5s+2.5s=1Mbps/100ms,down@5s,up@10s,ramp@10s+1.25s=10Mbps/20ms"
	pfs, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		Ramp{Start: 2500 * sim.Millisecond, Duration: 2500 * sim.Millisecond, RateTo: netem.Mbps, DelayTo: 100 * sim.Millisecond},
		Outage{Down: 5 * sim.Second, Up: 10 * sim.Second},
		Ramp{Start: 10 * sim.Second, Duration: 1250 * sim.Millisecond, RateTo: 10 * netem.Mbps, DelayTo: 20 * sim.Millisecond},
	}
	if len(pfs) != 1 || pfs[0].Target != "wifi" || !reflect.DeepEqual(pfs[0].Faults, want) {
		t.Fatalf("Parse(%q) = %#v, want wifi: %#v", spec, pfs, want)
	}

	// Parsed and typed schedules drive two identical links identically.
	state := func(install func(*sim.Engine, *netem.Path)) (out []string) {
		eng := sim.NewEngine(1)
		l := func() *netem.Link {
			return netem.NewLink(eng, netem.LinkConfig{Rate: 10 * netem.Mbps, Delay: 20 * sim.Millisecond})
		}
		p := &netem.Path{Name: "wifi", Forward: []*netem.Link{l()}, Reverse: []*netem.Link{l()}}
		install(eng, p)
		for at := sim.Second; at <= 15*sim.Second; at += 250 * sim.Millisecond {
			eng.Run(at)
			f := p.Forward[0]
			out = append(out, fmt.Sprint(at, f.Rate(), f.Delay(), f.Down()))
		}
		return out
	}
	parsed := state(func(eng *sim.Engine, p *netem.Path) {
		if err := Install(eng, spec, []*netem.Path{p}, 15*sim.Second); err != nil {
			t.Fatal(err)
		}
	})
	typed := state(func(eng *sim.Engine, p *netem.Path) { Apply(eng, p, want...) })
	if !reflect.DeepEqual(parsed, typed) {
		t.Errorf("parsed schedule diverges from the typed one:\n%v\n%v", parsed, typed)
	}

	for _, bad := range []string{
		"p:ramp@1s",                  // no window or targets
		"p:ramp@1s+2s",               // no targets
		"p:ramp@1s=1Mbps/10ms",       // no duration
		"p:ramp@1s+2s=1Mbps",         // no delay target
		"p:ramp@1s+0s=1Mbps/10ms",    // empty window
		"p:ramp@1s+2s=0Mbps/10ms",    // zero rate
		"p:ramp@1s+2s=1Mbps/0s",      // zero delay
		"p:ramp@1s+2s=1Mbps/-10ms",   // negative delay
		"p:ramp@soon+2s=1Mbps/10ms",  // bad time
		"p:ramp@1s+2s=1Mbps/10ms/1s", // trailing field
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestDirectivesListed: Directives names exactly the kinds Parse knows.
func TestDirectivesListed(t *testing.T) {
	for _, kind := range append([]string{"sideways"}, Directives...) {
		_, err := Parse("p:" + kind + "@")
		if unknown := err != nil && strings.Contains(err.Error(), "unknown directive"); unknown != (kind == "sideways") {
			t.Errorf("Parse of a %s@ directive: %v", kind, err)
		}
	}
}

func TestParsePermanentDownAndErrors(t *testing.T) {
	pfs, err := Parse("p:down@3s")
	if err != nil {
		t.Fatal(err)
	}
	if o := pfs[0].Faults[0].(Outage); o.Up != 0 {
		t.Errorf("unpaired down parsed as %#v, want permanent outage", o)
	}
	for _, bad := range []string{
		"", "noclauses", "p:", "p:down", "p:sideways@2s",
		"p:up@2s,down@3s,up@1s", // up not after down
		"p:loss@2s=1.5",         // out of range
		"p:flap@1s+1s/2s",       // DownFor > Period
		"p:rate@1s=0Mbps",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestParseRateUnits(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"500Kbps", 500 * netem.Kbps},
		{"2Mbps", 2 * netem.Mbps},
		{"1.5Gbps", 1500 * netem.Mbps},
		{"750000", 750000},
		{"10bps", 10},
	} {
		got, err := ParseRate(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRate(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestResolveTargets(t *testing.T) {
	eng := sim.NewEngine(1)
	p0, p1 := twoWayPath(eng), twoWayPath(eng)
	p0.Name, p1.Name = "wifi", "lte"
	paths := []*netem.Path{p0, p1}
	for _, tc := range []struct {
		target string
		want   *netem.Path
	}{{"wifi", p0}, {"lte", p1}, {"path0", p0}, {"path1", p1}, {"1", p1}} {
		got, err := Resolve(tc.target, paths)
		if err != nil || got != tc.want {
			t.Errorf("Resolve(%q) = %v, %v; want %s", tc.target, got, err, tc.want.Name)
		}
	}
	if _, err := Resolve("dsl", paths); err == nil {
		t.Error("Resolve of unknown target succeeded")
	}
}
