package core

import (
	"math"
	"testing"
)

// fakeClock is a settable clock for driving CUBIC through simulated time.
type fakeClock struct{ now float64 }

func (c *fakeClock) fn() func() float64 { return func() float64 { return c.now } }

func TestCubicFallsBackToRenoWithoutClock(t *testing.T) {
	c := NewCubic()
	flows := []View{v(10, 0.1)}
	if got := c.Increase(flows, 0); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("clockless Increase = %g, want Reno 1/w = 0.1", got)
	}
}

func TestCubicDecreaseAndFastConvergence(t *testing.T) {
	clk := &fakeClock{}
	c := NewCubic()
	c.SetClock(clk.fn())
	flows := []View{v(100, 0.1)}

	// First loss at w=100: no prior plateau, so wMax = w and the window
	// shrinks to β·w.
	if got := c.Decrease(flows, 0); !almostEq(got, 70, 1e-9) {
		t.Fatalf("Decrease(100) = %g, want β·w = 70", got)
	}
	wantK := math.Cbrt(100 * (1 - cubicBeta) / cubicC)
	if got := c.st[0].k; !almostEq(got, wantK, 1e-9) {
		t.Errorf("K = %g, want %g", got, wantK)
	}

	// Second loss below the old plateau (w=80 < wLastMax=100): fast
	// convergence aims the new plateau below the current window.
	flows[0].Cwnd = 80
	c.Decrease(flows, 0)
	if got := c.st[0].wMax; !almostEq(got, 80*(1+cubicBeta)/2, 1e-9) {
		t.Errorf("fast-convergence wMax = %g, want %g", got, 80*(1+cubicBeta)/2)
	}
}

func TestCubicConcaveConvexGrowth(t *testing.T) {
	clk := &fakeClock{}
	c := NewCubic()
	c.SetClock(clk.fn())
	flows := []View{v(100, 0.05)} // short RTT keeps W_est out of the way early

	c.Decrease(flows, 0) // plateau at 100, K = cbrt(100·0.3/0.4) ≈ 4.22s
	flows[0].Cwnd = 70
	k := c.st[0].k

	// Concave region (t < K): growth toward the plateau, slowing as the
	// window approaches it.
	clk.now = k / 2
	early := c.Increase(flows, 0)
	if early <= 0 {
		t.Fatalf("no growth in the concave region: %g", early)
	}
	flows[0].Cwnd = 99
	clk.now = k * 0.95
	nearPlateau := c.Increase(flows, 0)
	if nearPlateau >= early {
		t.Errorf("growth did not slow near the plateau: %g then %g", early, nearPlateau)
	}

	// Convex region (t > K): growth accelerates past the plateau.
	flows[0].Cwnd = 101
	clk.now = k + 2
	convex1 := c.Increase(flows, 0)
	clk.now = k + 4
	convex2 := c.Increase(flows, 0)
	if convex2 <= convex1 {
		t.Errorf("convex growth did not accelerate: %g then %g", convex1, convex2)
	}

	// The per-ack increment is capped so a long-idle epoch cannot step the
	// window explosively.
	clk.now = k + 1000
	if got := c.Increase(flows, 0); got > 0.5 {
		t.Errorf("Increase = %g, want capped at 0.5", got)
	}
}

func TestCubicTCPFriendlyRegion(t *testing.T) {
	clk := &fakeClock{}
	c := NewCubic()
	c.SetClock(clk.fn())
	// Small window, short RTT: standard Reno would regrow faster than the
	// flat early cubic curve, so W_est = wMax·β + α·t/RTT overtakes W_cubic
	// and the TCP-friendly region drives the increase.
	flows := []View{v(10, 0.1)}
	c.Decrease(flows, 0)
	flows[0].Cwnd = 7

	clk.now = 0.3 // well before K = cbrt(10·0.3/0.4) ≈ 1.96s
	st := &c.st[0]
	if st.wEst(0.3, 0.1) <= st.wCubic(0.3) {
		t.Fatalf("test premise broken: wEst %g not above wCubic %g", st.wEst(0.3, 0.1), st.wCubic(0.3))
	}
	want := (st.wEst(0.3, 0.1) - 7) / 7
	if got := c.Increase(flows, 0); !almostEq(got, want, 1e-9) {
		t.Errorf("TCP-friendly Increase = %g, want %g (driven by W_est)", got, want)
	}
}

func TestCubicTimeoutResetsEpoch(t *testing.T) {
	clk := &fakeClock{}
	c := NewCubic()
	c.SetClock(clk.fn())
	flows := []View{v(100, 0.1)}
	c.Decrease(flows, 0)
	if c.st[0].wMax == 0 {
		t.Fatal("decrease left no plateau")
	}
	c.OnTimeout(flows, 0)
	if c.st[0].wMax != 0 || c.st[0].hasEpoch || c.st[0].wLastMax != 0 {
		t.Errorf("timeout did not reset the epoch: %+v", c.st[0])
	}
}

func TestCubicIntrospection(t *testing.T) {
	clk := &fakeClock{}
	c := NewCubic()
	c.SetClock(clk.fn())
	flows := []View{v(100, 0.1)}
	c.Decrease(flows, 0)
	m := map[string]float64{}
	c.Introspect(flows, 0, m)
	for _, key := range []string{"w_max", "w_last_max", "k", "w_cubic", "w_est"} {
		if _, ok := m[key]; !ok {
			t.Errorf("introspection missing %q", key)
		}
	}
	if m["w_max"] != 100 {
		t.Errorf("w_max = %g, want 100", m["w_max"])
	}
}

func TestVegasSteersBacklogIntoBand(t *testing.T) {
	alg := NewVegas()

	// Backlog below α (no queueing): +1 per round.
	f := View{Cwnd: 20, SSThresh: 10, SRTT: 0.1, LastRTT: 0.1, BaseRTT: 0.1}
	if cwnd, _ := alg.OnRound([]View{f}, 0); !almostEq(cwnd, 21, 1e-9) {
		t.Errorf("cwnd below α: %g, want +1 → 21", cwnd)
	}

	// Backlog inside [α, β]: hold. diff = 20·(0.115−0.1)/0.115 ≈ 2.6.
	f = View{Cwnd: 20, SSThresh: 10, SRTT: 0.115, LastRTT: 0.115, BaseRTT: 0.1}
	if cwnd, _ := alg.OnRound([]View{f}, 0); !almostEq(cwnd, 20, 1e-9) {
		t.Errorf("cwnd inside band: %g, want hold at 20", cwnd)
	}

	// Backlog above β: −1. diff = 20·(0.14−0.1)/0.14 ≈ 5.7.
	f = View{Cwnd: 20, SSThresh: 10, SRTT: 0.14, LastRTT: 0.14, BaseRTT: 0.1}
	if cwnd, _ := alg.OnRound([]View{f}, 0); !almostEq(cwnd, 19, 1e-9) {
		t.Errorf("cwnd above band: %g, want −1 → 19", cwnd)
	}

	// Slow start exits once backlog exceeds γ.
	f = View{Cwnd: 20, SSThresh: 100, SRTT: 0.12, LastRTT: 0.12, BaseRTT: 0.1, InSlowStart: true}
	cwnd, ssthresh := alg.OnRound([]View{f}, 0)
	if ssthresh != 20 || !almostEq(cwnd, 10, 1e-9) {
		t.Errorf("slow-start exit: cwnd=%g ssthresh=%g, want 10/20", cwnd, ssthresh)
	}
}

func TestVegasLossHalvesWindow(t *testing.T) {
	alg := NewVegas()
	if got := alg.Decrease([]View{v(30, 0.1)}, 0); !almostEq(got, 15, 1e-9) {
		t.Errorf("Decrease = %g, want w/2 = 15", got)
	}
}

func sumWeights(ws []float64) float64 {
	var s float64
	for _, w := range ws {
		s += w
	}
	return s
}

// TestWVegasWeightsRenormalizeOnDeath is the failing-before regression for
// the weight-accounting fix: before it, a dead subflow kept its weight
// slice forever (Σ over the survivors < 1), starving the survivors'
// backlog targets.
func TestWVegasWeightsRenormalizeOnDeath(t *testing.T) {
	alg := NewWVegas()
	flows := []View{v(10, 0.1), v(10, 0.1), v(10, 0.1)}
	alg.OnRound(flows, 0)
	if got := sumWeights(alg.Weights()); !almostEq(got, 1, 1e-9) {
		t.Fatalf("Σweights = %g after first round, want 1", got)
	}

	alg.OnSubflowDown(2)
	ws := alg.Weights()
	if ws[2] != 0 {
		t.Errorf("dead subflow weight = %g, want 0", ws[2])
	}
	if got := sumWeights(ws); !almostEq(got, 1, 1e-9) {
		t.Errorf("Σweights = %g after subflow death, want renormalized to 1", got)
	}

	// Rounds while one subflow is down keep the sum pinned and the dead
	// weight at 0 even though the dead flow still appears in the views.
	for i := 0; i < 50; i++ {
		alg.OnRound(flows, 0)
	}
	ws = alg.Weights()
	if ws[2] != 0 {
		t.Errorf("dead subflow weight crept back to %g", ws[2])
	}
	if got := sumWeights(ws); !almostEq(got, 1, 1e-9) {
		t.Errorf("Σweights = %g after rounds with a dead subflow, want 1", got)
	}

	// Revival re-admits the subflow with a real share and Σ stays 1.
	alg.OnSubflowUp(2)
	ws = alg.Weights()
	if ws[2] <= 0 {
		t.Errorf("revived subflow weight = %g, want > 0", ws[2])
	}
	if got := sumWeights(ws); !almostEq(got, 1, 1e-9) {
		t.Errorf("Σweights = %g after revival, want 1", got)
	}
}

// TestWVegasWeightSumPreservedByRounds pins the EWMA invariant the checker
// relies on: round updates keep Σ weights = 1 exactly (up to float
// rounding) with no membership events at all.
func TestWVegasWeightSumPreservedByRounds(t *testing.T) {
	alg := NewWVegas()
	flows := []View{v(30, 0.05), v(10, 0.2)}
	for i := 0; i < 200; i++ {
		alg.OnRound(flows, 0)
		if got := sumWeights(alg.Weights()); math.Abs(got-1) > 1e-9 {
			t.Fatalf("round %d: Σweights = %g drifted from 1", i, got)
		}
	}
	ws := alg.Weights()
	if ws[0] <= ws[1] {
		t.Errorf("faster subflow did not earn the larger weight: %v", ws)
	}
}

func TestPsiUncoupledIsRenoPerSubflow(t *testing.T) {
	flows := []View{v(10, 0.1), v(20, 0.2)}
	m := &Model{ModelName: "uncoupled", Psi: PsiUncoupled}
	for r, f := range flows {
		want := 1 / f.Cwnd
		if got := m.Increase(flows, r); !almostEq(got, want, 1e-12) {
			t.Errorf("subflow %d: Increase = %g, want 1/w = %g", r, got, want)
		}
	}
}
