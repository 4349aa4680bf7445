package app

import (
	"testing"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

func streamOver(t *testing.T, eng *sim.Engine, paths []*netem.Path, bitrate int64) *Stream {
	t.Helper()
	conn, err := mptcp.New(eng, mptcp.Config{Algorithm: "lia", AppLimited: true}, 1, paths...)
	if err != nil {
		t.Fatal(err)
	}
	return NewStream(eng, conn, StreamConfig{BitrateBps: bitrate})
}

func twoPaths(eng *sim.Engine, rate int64) []*netem.Path {
	mk := func(name string) *netem.Path {
		fwd := netem.NewLink(eng, netem.LinkConfig{Name: name, Rate: rate, Delay: 10 * sim.Millisecond})
		rev := netem.NewLink(eng, netem.LinkConfig{Name: name + "r", Rate: rate, Delay: 10 * sim.Millisecond})
		return &netem.Path{Name: name, Forward: []*netem.Link{fwd}, Reverse: []*netem.Link{rev}}
	}
	return []*netem.Path{mk("a"), mk("b")}
}

func TestStreamPlaysSmoothlyUnderCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	// 4 Mb/s media over 2x10 Mb/s paths: plenty of headroom.
	s := streamOver(t, eng, twoPaths(eng, 10*netem.Mbps), 4_000_000)
	s.Start()
	eng.Run(60 * sim.Second)

	if !s.Started() {
		t.Fatal("playback never started")
	}
	if s.Rebuffers() != 0 {
		t.Errorf("rebuffered %d times with 5x headroom", s.Rebuffers())
	}
	// ~2s initial buffer, then continuous playback.
	if d := s.StartupDelay(); d > 5*sim.Second {
		t.Errorf("startup delay %v, want a few seconds", d.Duration())
	}
	played := s.PlayedSeconds()
	if played < 50 {
		t.Errorf("played %.1f media-seconds of ~58 possible", played)
	}
}

func TestStreamRebuffersOverCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	// 12 Mb/s media over 2x4 Mb/s paths: undeliverable.
	s := streamOver(t, eng, twoPaths(eng, 4*netem.Mbps), 12_000_000)
	s.Start()
	eng.Run(60 * sim.Second)

	if !s.Started() {
		t.Fatal("playback never started (initial buffer eventually fills even slowly)")
	}
	if s.Rebuffers() == 0 {
		t.Error("no rebuffering although media rate exceeds capacity")
	}
	if s.RebufferRatio() <= 0.1 {
		t.Errorf("rebuffer ratio %.2f, want substantial", s.RebufferRatio())
	}
}

func TestStreamAppLimitedDoesNotBlast(t *testing.T) {
	eng := sim.NewEngine(1)
	paths := twoPaths(eng, 50*netem.Mbps)
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia", AppLimited: true}, 1, paths...)
	s := NewStream(eng, conn, StreamConfig{BitrateBps: 4_000_000})
	s.Start()
	eng.Run(30 * sim.Second)

	// The connection may only ship what the source produced.
	if int64(conn.AckedBytes()) > conn.ProducedBytes() {
		t.Errorf("acked %d > produced %d", conn.AckedBytes(), conn.ProducedBytes())
	}
	// And the source is the limit, not the network: goodput ~ bitrate.
	tput := conn.MeanThroughputBps()
	if tput < 3.2e6 || tput > 4.8e6 {
		t.Errorf("app-limited goodput %.1f Mb/s, want ~4", tput/1e6)
	}
}

func TestStreamOnHetWirelessWithCrossTraffic(t *testing.T) {
	// The future-work scenario: streaming on WiFi+4G under bursty cross
	// traffic; the session must start and keep the stall ratio bounded.
	// 4 Mb/s media: deliverable even during WiFi bursts, because the 64 KB
	// receive window caps the 200 ms-RTT LTE path at ~2.6 Mb/s and the
	// burst-squeezed WiFi adds ~2.
	eng := sim.NewEngine(3)
	het := topo.NewHetWireless(eng, topo.HetWirelessConfig{})
	workload.NewParetoOnOff(eng, []*netem.Link{het.CrossEntry(0)},
		workload.ParetoConfig{RateBps: 8 * netem.Mbps}).Start()
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "dts-lia", AppLimited: true, RwndSegments: 45}, 1, het.Paths()...)
	s := NewStream(eng, conn, StreamConfig{BitrateBps: 4_000_000})
	s.Start()
	eng.Run(120 * sim.Second)

	if !s.Started() {
		t.Fatal("stream never started")
	}
	if r := s.RebufferRatio(); r > 0.35 {
		t.Errorf("rebuffer ratio %.2f, want mostly smooth playback", r)
	}
	if s.PlayedSeconds() < 50 {
		t.Errorf("played only %.1f media-seconds in 120 s", s.PlayedSeconds())
	}
}

func TestStreamStopHaltsTicks(t *testing.T) {
	eng := sim.NewEngine(1)
	s := streamOver(t, eng, twoPaths(eng, 10*netem.Mbps), 4_000_000)
	s.Start()
	eng.Run(5 * sim.Second)
	queued := eng.Pending()
	s.Stop()
	if got := eng.Pending(); got != queued-1 {
		t.Errorf("Pending = %d after Stop, want %d: the next chunk must leave the queue", got, queued-1)
	}
	produced := s.conn.ProducedBytes()
	eng.Run(10 * sim.Second)
	if s.conn.ProducedBytes() != produced {
		t.Error("source kept producing after Stop")
	}
}
