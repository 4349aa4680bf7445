package check

import (
	"errors"
	"strings"
	"testing"

	"mptcpsim/internal/energy"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// cleanConn is a healthy two-subflow connection snapshot used as the base
// state every mutation test corrupts. All mutation tests share it, so a
// mutation that trips an unrelated invariant is caught too.
func cleanConn() ConnState {
	return ConnState{
		Name:       "c",
		Sent:       90, // 60+50 maxSent minus 20 reinjected
		Acked:      70,
		Reinjected: 20,
		Credits:    []int64{0, 15},
		Subflows: []SubflowState{
			{
				ID: 0, Cwnd: 10, SSThresh: 8, MinCwnd: 1,
				CumAck: 55, NextSeq: 60, MaxSent: 60,
				Inflight: 5, Outstanding: 4,
				State: "active",
			},
			{
				ID: 1, Cwnd: 1, SSThresh: 4, MinCwnd: 1,
				CumAck: 30, NextSeq: 30, MaxSent: 50,
				Inflight: 0, Outstanding: 0,
				State:           "probing",
				Transitions:     []string{"dead", "probing"},
				TransitionTimes: []sim.Time{sim.Second, 2 * sim.Second},
			},
		},
		Weights: []float64{0.6, 0.4},
	}
}

func TestCheckConnClean(t *testing.T) {
	if vs := CheckConn(0, cleanConn()); len(vs) != 0 {
		t.Fatalf("clean state reported violations: %v", vs)
	}
}

// TestMutationsTrip is the mutation suite: every invariant gets at least one
// deliberately broken state that must trip it — and must name the right
// invariant, so a checker that flags everything as one generic failure
// cannot pass.
func TestMutationsTrip(t *testing.T) {
	cases := []struct {
		name   string
		want   string // invariant that must fire
		mutate func(*ConnState)
	}{
		{
			name:   "sent segments vanish",
			want:   InvConnConserv,
			mutate: func(st *ConnState) { st.Sent -= 7 },
		},
		{
			name:   "maxSent inflated without charge",
			want:   InvConnConserv,
			mutate: func(st *ConnState) { st.Subflows[0].MaxSent += 3; st.Subflows[0].NextSeq += 3 },
		},
		{
			name:   "acked exceeds sent",
			want:   InvConnConserv,
			mutate: func(st *ConnState) { st.Acked = st.Sent + 1 },
		},
		{
			name:   "negative acked counter",
			want:   InvConnConserv,
			mutate: func(st *ConnState) { st.Acked = -1 },
		},
		{
			name: "negative reinjection credit",
			want: InvCredit,
			mutate: func(st *ConnState) {
				// Keep ΣMaxSent = Sent+Reinjected intact so only the credit
				// invariant can catch this.
				st.Credits[0] = -5
			},
		},
		{
			name:   "credit exceeds unacked range",
			want:   InvCredit,
			mutate: func(st *ConnState) { st.Credits[1] = st.Subflows[1].MaxSent - st.Subflows[1].CumAck + 1 },
		},
		{
			name:   "credits exceed lifetime reinjected",
			want:   InvCredit,
			mutate: func(st *ConnState) { st.Credits[0] = 10; st.Credits[1] = 15; st.Reinjected = 20 },
		},
		{
			name:   "cumAck past nextSeq",
			want:   InvSeq,
			mutate: func(st *ConnState) { st.Subflows[1].CumAck = st.Subflows[1].NextSeq + 1 },
		},
		{
			name:   "nextSeq past maxSent",
			want:   InvSeq,
			mutate: func(st *ConnState) { st.Subflows[1].NextSeq = st.Subflows[1].MaxSent + 2 },
		},
		{
			name:   "negative inflight",
			want:   InvSeq,
			mutate: func(st *ConnState) { st.Subflows[0].Inflight = -1; st.Subflows[0].Outstanding = -1 },
		},
		{
			name:   "pipe above inflight",
			want:   InvSeq,
			mutate: func(st *ConnState) { st.Subflows[0].Outstanding = st.Subflows[0].Inflight + 1 },
		},
		{
			name:   "cwnd below floor",
			want:   InvCwnd,
			mutate: func(st *ConnState) { st.Subflows[0].Cwnd = 0.5 },
		},
		{
			name:   "cwnd NaN",
			want:   InvCwnd,
			mutate: func(st *ConnState) { st.Subflows[0].Cwnd = nan() },
		},
		{
			name:   "cwnd ran away",
			want:   InvCwnd,
			mutate: func(st *ConnState) { st.Subflows[0].Cwnd = 1e18 },
		},
		{
			name:   "ssthresh below two",
			want:   InvCwnd,
			mutate: func(st *ConnState) { st.Subflows[0].SSThresh = 1 },
		},
		{
			name:   "unknown subflow state",
			want:   InvState,
			mutate: func(st *ConnState) { st.Subflows[0].State = "zombie" },
		},
		{
			name:   "illegal transition active to probing",
			want:   InvState,
			mutate: func(st *ConnState) { st.Subflows[1].Transitions = []string{"probing"} },
		},
		{
			name: "transition timeline out of order",
			want: InvState,
			mutate: func(st *ConnState) {
				st.Subflows[1].TransitionTimes = []sim.Time{2 * sim.Second, sim.Second}
			},
		},
		{
			name:   "timeline disagrees with state",
			want:   InvState,
			mutate: func(st *ConnState) { st.Subflows[1].State = "dead" },
		},
		{
			name: "weights sum drifted",
			want: InvWeights,
			// The pre-fix wVegas failure mode: a subflow dies, nobody
			// renormalizes, and the survivors keep only part of the budget.
			mutate: func(st *ConnState) { st.Weights = []float64{0.6, 0} },
		},
		{
			name:   "negative weight",
			want:   InvWeights,
			mutate: func(st *ConnState) { st.Weights = []float64{1.2, -0.2} },
		},
		{
			name:   "weight NaN",
			want:   InvWeights,
			mutate: func(st *ConnState) { st.Weights = []float64{nan(), 1} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := cleanConn()
			tc.mutate(&st)
			vs := CheckConn(0, st)
			if len(vs) == 0 {
				t.Fatalf("mutation not detected")
			}
			for _, v := range vs {
				if v.Invariant == tc.want {
					return
				}
			}
			t.Fatalf("mutation tripped %v, want invariant %q", vs, tc.want)
		})
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestCheckLinkMutations(t *testing.T) {
	clean := LinkState{Name: "l", Arrived: 100, Delivered: 80, Dropped: 10, RandDropped: 3, OutageDropped: 2, Queued: 5}
	if vs := CheckLink(0, clean); len(vs) != 0 {
		t.Fatalf("clean link reported violations: %v", vs)
	}
	lost := clean
	lost.Delivered-- // one packet unaccounted for
	vs := CheckLink(0, lost)
	if len(vs) != 1 || vs[0].Invariant != InvLinkConserv {
		t.Fatalf("packet leak not detected: %v", vs)
	}
	dup := clean
	dup.Arrived-- // one packet delivered out of thin air
	if vs := CheckLink(0, dup); len(vs) != 1 || vs[0].Invariant != InvLinkConserv {
		t.Fatalf("packet duplication not detected: %v", vs)
	}
}

func TestCheckMeterMutations(t *testing.T) {
	clean := MeterState{Name: "m", Joules: 10, PrevJoules: 8, MeanPower: 2}
	if vs := CheckMeter(0, clean); len(vs) != 0 {
		t.Fatalf("clean meter reported violations: %v", vs)
	}
	cases := []struct {
		name   string
		mutate func(*MeterState)
	}{
		{"negative joules", func(st *MeterState) { st.Joules = -1; st.PrevJoules = -2 }},
		{"joules decreased", func(st *MeterState) { st.Joules = 7 }},
		{"NaN joules", func(st *MeterState) { st.Joules = nan() }},
		{"negative mean power", func(st *MeterState) { st.MeanPower = -0.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := clean
			tc.mutate(&st)
			vs := CheckMeter(0, st)
			if len(vs) == 0 {
				t.Fatalf("mutation not detected")
			}
			for _, v := range vs {
				if v.Invariant != InvEnergy {
					t.Fatalf("wrong invariant %q", v.Invariant)
				}
			}
		})
	}
}

// TestInvariantsLiveRun drives a real lossy two-path simulation — enough
// congestion for fast retransmits, timeouts and an outage-driven failover —
// with the checker at a tight cadence, and requires zero violations.
func TestInvariantsLiveRun(t *testing.T) {
	eng := sim.NewEngine(42)
	net := topo.NewNPath(eng,
		topo.NPathSpec{Rate: 8 * netem.Mbps, Queue: 20},
		topo.NPathSpec{Rate: 4 * netem.Mbps, Queue: 20})
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, net.Paths()...)

	// Saturating cross traffic on path1 forces drops; a mid-run outage on
	// path0 forces a failover (dead → probing → active), exercising the
	// credit invariants.
	workload.NewCBR(eng, net.Paths()[1].Forward[1:], 3*netem.Mbps).Start()
	l0 := net.Paths()[0].Forward[0]
	eng.Schedule(3*sim.Second, l0.SetDown)
	eng.Schedule(8*sim.Second, l0.SetUp)

	meter := energy.NewMeter(eng, energy.NewI7(), energy.ConnProbe(conn), 100*sim.Millisecond)

	inv := New(eng)
	inv.SetInterval(10 * sim.Millisecond)
	inv.Watch("conn", conn)
	inv.WatchPaths(net.Paths()...)
	inv.WatchMeter("nic", meter)
	inv.Start()

	conn.Start()
	meter.Start()
	eng.Run(15 * sim.Second)
	inv.Final()

	if err := inv.Err(); err != nil {
		t.Fatalf("live run violated invariants: %v", err)
	}
	if inv.Checks() < 100 {
		t.Fatalf("checker barely ran: %d checks", inv.Checks())
	}
	if conn.Subflows()[0].Stats().Fails == 0 {
		t.Fatalf("outage did not trigger failover; test lost its teeth")
	}
}

// TestCheckAllocatesNothing: a checker refills each watched connection's
// state in place, so once a watched two-subflow connection has failed over
// and recovered — transitions and re-injection credits on record, weights
// too — an evaluation allocates nothing.
func TestCheckAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(42)
	net := topo.NewNPath(eng, topo.NPathSpec{Rate: 8 * netem.Mbps, Queue: 20}, topo.NPathSpec{Rate: 4 * netem.Mbps, Queue: 20})
	conn := mptcp.MustNew(eng, mptcp.Config{Algorithm: "wvegas"}, 1, net.Paths()...)
	l0 := net.Paths()[0].Forward[0]
	eng.Schedule(3*sim.Second, l0.SetDown)
	eng.Schedule(8*sim.Second, l0.SetUp)
	meter := energy.NewMeter(eng, energy.NewI7(), energy.ConnProbe(conn), 100*sim.Millisecond)

	inv := New(eng)
	inv.Watch("conn", conn)
	inv.WatchMeter("nic", meter)
	inv.Start()
	conn.Start()
	meter.Start()
	eng.Run(15 * sim.Second)

	if tl := conn.Subflows()[0].Transitions().Events; len(tl) < 2 {
		t.Fatalf("path0 recorded %d failover transitions; the outage did not fail it over", len(tl))
	}
	if avg := testing.AllocsPerRun(100, inv.Check); avg != 0 {
		t.Errorf("Check allocates %.1f times per evaluation, want 0", avg)
	}
	if err := inv.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestUnwatch verifies a churning population can bound the watched set:
// unwatched connections are no longer checked (their later corruption is
// invisible), other watches and the links stay.
func TestUnwatch(t *testing.T) {
	eng := sim.NewEngine(5)
	net := topo.NewNPath(eng, topo.NPathSpec{}, topo.NPathSpec{})
	a := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 1, net.Paths()...)
	b := mptcp.MustNew(eng, mptcp.Config{Algorithm: "lia"}, 2, net.Paths()...)

	inv := New(eng)
	inv.Watch("a", a)
	inv.Watch("b", b)
	if len(inv.conns) != 2 {
		t.Fatalf("watching %d conns, want 2", len(inv.conns))
	}
	links := len(inv.links)
	inv.Unwatch(a)
	if len(inv.conns) != 1 || inv.conns[0].conn != b {
		t.Fatalf("Unwatch(a) left %+v", inv.conns)
	}
	if len(inv.links) != links {
		t.Errorf("Unwatch dropped links: %d -> %d", links, len(inv.links))
	}
	// Unwatching an unknown conn is a no-op, not a panic.
	inv.Unwatch(a)
	if len(inv.conns) != 1 {
		t.Fatalf("double Unwatch removed another conn")
	}
	// The surviving watch still checks clean on the live engine.
	inv.Start()
	b.Start()
	eng.Run(2 * sim.Second)
	inv.Final()
	if err := inv.Err(); err != nil {
		t.Fatalf("post-Unwatch run violated invariants: %v", err)
	}
	if inv.Checks() == 0 {
		t.Error("checker never ran after Unwatch")
	}
}

// TestFailFastPanics verifies FailFast mode actually halts the run with the
// violation detail (the experiment harness relies on this surfacing).
func TestFailFastPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	inv := New(eng)
	inv.FailFast = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("FailFast did not panic")
		}
		f, ok := r.(*Failure)
		if !ok || f.Invariant() != InvEnergy || !strings.HasPrefix(f.Error(), "check: invariant violated: t=0.000s "+InvEnergy+": ") {
			t.Fatalf("panic %v is not a *Failure naming the invariant", r)
		}
	}()
	inv.report(CheckMeter(0, MeterState{Name: "m", Joules: -1})...)
}

// TestErrSummarizes checks the collected-mode error names the violations.
func TestErrSummarizes(t *testing.T) {
	eng := sim.NewEngine(1)
	inv := New(eng)
	inv.report(Violation{T: sim.Second, Invariant: InvClock, Detail: "x"})
	inv.report(Violation{T: 2 * sim.Second, Invariant: InvCwnd, Detail: "y"})
	err := inv.Err()
	const want = "check: 2 invariant violation(s); t=1.000s clock: x; t=2.000s subflow.cwnd: y"
	var f *Failure
	if err == nil || err.Error() != want || !errors.As(err, &f) || f.Invariant() != InvClock {
		t.Fatalf("Err() = %v, want a *Failure naming %s first and reading %q", err, InvClock, want)
	}
}

// TestInject verifies the chaos failpoint hook behaves exactly like a
// checker-found violation in both modes.
func TestInject(t *testing.T) {
	eng := sim.NewEngine(1)
	inv := New(eng)
	v := Violation{T: sim.Second, Invariant: "chaos.failpoint", Detail: "injected"}
	inv.Inject(v)
	if err := inv.Err(); err == nil || !strings.Contains(err.Error(), "chaos.failpoint") {
		t.Fatalf("Err() = %v, want injected violation", err)
	}

	ff := New(eng)
	ff.FailFast = true
	defer func() {
		r := recover()
		if f, ok := r.(*Failure); !ok || f.Invariant() != "chaos.failpoint" {
			t.Fatalf("recovered %v, want FailFast *Failure naming the invariant", r)
		}
	}()
	ff.Inject(v)
	t.Fatalf("FailFast Inject did not panic")
}
