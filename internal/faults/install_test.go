package faults

import (
	"errors"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// TestInstall: a spec is parsed, validated against the paths and horizon it
// will run in, and scheduled — or refused whole, leaving nothing scheduled.
func TestInstall(t *testing.T) {
	mk := func(eng *sim.Engine, name string) *netem.Path {
		l := func() *netem.Link { return netem.NewLink(eng, netem.LinkConfig{Name: name, Rate: netem.Mbps}) }
		return &netem.Path{Name: name, Forward: []*netem.Link{l()}, Reverse: []*netem.Link{l()}}
	}
	eng := sim.NewEngine(1)
	paths := []*netem.Path{mk(eng, "wifi"), mk(eng, "lte")}
	if err := Install(eng, "", paths, sim.Second); err != nil || eng.Pending() != 0 {
		t.Fatalf("empty spec: err %v, %d events pending", err, eng.Pending())
	}
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"path7:down@100ms", ErrUnknownTarget},
		{"lte:down@2s", ErrPastHorizon},
		{"lte:sideways@100ms", nil},
	} {
		err := Install(eng, "wifi:down@50ms;"+tc.spec, paths, sim.Second)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) || eng.Pending() != 0 {
			t.Errorf("Install(%q) = %v with %d events pending, want %v and none", tc.spec, err, eng.Pending(), tc.want)
		}
	}
	if err := Install(eng, "wifi:down@100ms,up@300ms;path1:loss@200ms=0.5", paths, sim.Second); err != nil {
		t.Fatal(err)
	}
	eng.Run(150 * sim.Millisecond)
	if !paths[0].Forward[0].Down() || !paths[0].Reverse[0].Down() || paths[1].Forward[0].Down() {
		t.Error("at 150ms wifi should be down both ways and lte up")
	}
	eng.Run(sim.Second)
	if paths[0].Forward[0].Down() || paths[1].Forward[0].LossProb() != 0.5 {
		t.Error("at 1s wifi should be back up and lte lossy")
	}
}
