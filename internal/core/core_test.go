package core

import (
	"math"
	"testing"
	"testing/quick"
)

// v builds a View in congestion avoidance with equal last/smoothed RTT.
func v(cwnd, rtt float64) View {
	return View{Cwnd: cwnd, SSThresh: cwnd, SRTT: rtt, LastRTT: rtt, BaseRTT: rtt}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("registered %d algorithms, want 16: %v", len(names), names)
	}
	for _, n := range names {
		a, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Errorf("New(%q).Name() = %q", n, a.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("New of unknown algorithm succeeded")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew of unknown name did not panic")
		}
	}()
	MustNew("nope")
}

func TestRenoIsClassicAIMD(t *testing.T) {
	r := NewReno()
	flows := []View{v(10, 0.1)}
	if got := r.Increase(flows, 0); got != 0.1 {
		t.Errorf("Increase = %v, want 1/w = 0.1", got)
	}
	if got := r.Decrease(flows, 0); got != 5 {
		t.Errorf("Decrease = %v, want w/2 = 5", got)
	}
}

func TestSinglePathReducesToReno(t *testing.T) {
	// On one path every TCP-friendly multipath algorithm should behave as
	// Reno (the design requirement of RFC 6356 §3).
	flows := []View{v(20, 0.05)}
	want := 1.0 / 20
	for _, name := range []string{"lia", "olia", "balia"} {
		alg := MustNew(name)
		if got := alg.Increase(flows, 0); !almostEq(got, want, 1e-9) {
			t.Errorf("%s single-path increase = %v, want %v", name, got, want)
		}
		if got := alg.Decrease(flows, 0); !almostEq(got, 10, 1e-9) {
			t.Errorf("%s single-path decrease = %v, want 10", name, got)
		}
	}
}

func TestDTSAtEquilibriumRatioIsReno(t *testing.T) {
	// DTS is designed so that at the equilibrium expectation
	// baseRTT/RTT = 1/2 (where eps = 1) the increase equals Reno's 1/w
	// on a single path — the fairness choice c = 1 of §V-B.
	f := View{Cwnd: 20, SRTT: 0.1, LastRTT: 0.1, BaseRTT: 0.05}
	d := &DTS{C: 1}
	if got := d.Increase([]View{f}, 0); !almostEq(got, 1.0/20, 1e-9) {
		t.Errorf("DTS increase at ratio 1/2 = %v, want 1/w = 0.05", got)
	}
	if got := d.Decrease([]View{f}, 0); !almostEq(got, 10, 1e-9) {
		t.Errorf("DTS decrease = %v, want 10", got)
	}
}

func TestLIAAlphaSymmetricPaths(t *testing.T) {
	// Two identical paths: alpha = w_total·(w/rtt²)/(2w/rtt)² = 1/2, so the
	// coupled increase alpha/w_total = 1/(2·w_total) — half of Reno's rate
	// split over two subflows, keeping the pair TCP-friendly.
	l := NewLIA()
	flows := []View{v(10, 0.1), v(10, 0.1)}
	if a := l.Alpha(flows); !almostEq(a, 0.5, 1e-9) {
		t.Errorf("Alpha = %v, want 0.5", a)
	}
	if inc := l.Increase(flows, 0); !almostEq(inc, 0.025, 1e-9) {
		t.Errorf("Increase = %v, want alpha/w_total = 0.025", inc)
	}
}

func TestLIACapNeverExceedsUncoupledTCP(t *testing.T) {
	// A tiny window on a fast path can push alpha/w_total above 1/w_r; the
	// RFC caps it.
	l := NewLIA()
	flows := []View{v(2, 0.001), v(50, 0.2)}
	inc := l.Increase(flows, 0)
	if inc > 1.0/2+1e-12 {
		t.Errorf("Increase = %v exceeds uncoupled 1/w = 0.5", inc)
	}
}

func TestEWTCPWeights(t *testing.T) {
	e := NewEWTCP()
	flows := []View{v(10, 0.1), v(10, 0.1), v(10, 0.1), v(10, 0.1)}
	// a = 1/sqrt(4) = 0.5 -> increase = 0.5/10.
	if got := e.Increase(flows, 0); !almostEq(got, 0.05, 1e-9) {
		t.Errorf("Increase = %v, want 0.05", got)
	}
}

func TestCoupledUsesTotalWindow(t *testing.T) {
	c := NewCoupled()
	flows := []View{v(10, 0.1), v(30, 0.1)}
	if got := c.Increase(flows, 0); !almostEq(got, 1.0/40, 1e-9) {
		t.Errorf("Increase = %v, want 1/w_total = 0.025", got)
	}
	if got := c.Decrease(flows, 0); !almostEq(got, 10-20, 1e-9) {
		t.Errorf("Decrease = %v, want w_r - w_total/2 = -10 (floored by transport)", got)
	}
}

func TestOLIAAlphaShiftsTowardBestPath(t *testing.T) {
	o := NewOLIA()
	// Path 0: small window but clean (no losses -> huge inter-loss
	// interval). Path 1: big window, lossy.
	flows := []View{v(5, 0.1), v(20, 0.1)}
	o.OnAck(flows, 0, 1000, false)
	o.OnAck(flows, 1, 1000, false)
	o.Decrease(flows, 1) // the loss closes path 1's inter-loss interval
	o.OnAck(flows, 1, 10, false)

	a0 := o.alpha(flows, 0)
	a1 := o.alpha(flows, 1)
	if a0 <= 0 {
		t.Errorf("alpha on best-but-small path = %v, want > 0", a0)
	}
	if a1 >= 0 {
		t.Errorf("alpha on max-window path = %v, want < 0", a1)
	}
	// With n=2, |B\M|=1, |M|=1: alpha = +1/2, -1/2.
	if !almostEq(a0, 0.5, 1e-9) || !almostEq(a1, -0.5, 1e-9) {
		t.Errorf("alphas = %v, %v, want +0.5, -0.5", a0, a1)
	}
}

func TestOLIAAlphaZeroWhenBestIsMax(t *testing.T) {
	o := NewOLIA()
	flows := []View{v(10, 0.1), v(10, 0.1)}
	// Symmetric, lossless: every path is best and max -> no shifting.
	if a := o.alpha(flows, 0); a != 0 {
		t.Errorf("alpha = %v, want 0 in symmetric state", a)
	}
}

func TestBaliaAlphaAndIncrease(t *testing.T) {
	b := NewBalia()
	flows := []View{v(10, 0.1), v(10, 0.1)}
	// Symmetric: alpha=1, increase = x/rtt/(2x)^2 · 1 · 1 = 1/(4·w) = 0.025.
	if got := b.Increase(flows, 0); !almostEq(got, 0.025, 1e-9) {
		t.Errorf("Increase = %v, want 0.025", got)
	}
	// Decrease with alpha=1: w - w/2 = 5.
	if got := b.Decrease(flows, 0); !almostEq(got, 5, 1e-9) {
		t.Errorf("Decrease = %v, want 5", got)
	}
}

func TestBaliaDecreaseCap(t *testing.T) {
	b := NewBalia()
	// Path 0 much slower than path 1: alpha huge, capped at 1.5.
	flows := []View{v(2, 0.5), v(100, 0.01)}
	got := b.Decrease(flows, 0)
	want := 2 - 2.0/2*1.5
	if !almostEq(got, want, 1e-9) {
		t.Errorf("Decrease = %v, want %v (alpha capped at 1.5)", got, want)
	}
}

// --- §IV decompositions: ψ through the model reproduces the algorithms ---

// psiOn evaluates an entry's traffic-shifting parameter on packet views.
func psiOn(e Entry) ParamFunc {
	return func(flows []View, r int) float64 {
		psi := 1.0
		if e.Eps != nil {
			psi = e.Eps(rttRatio(flows[r]))
		}
		if e.Psi != nil {
			psi *= e.Psi(flows, r)
		}
		return psi
	}
}

// TestModelDecompositionMatchesDirectForms walks the table: an entry's ψ,
// fed through Model's per-ACK form of Eq. 3, is the increase of the entry's
// own packet implementation — everywhere when the entry names no residual,
// and wherever the named residual vanishes when it does.
func TestModelDecompositionMatchesDirectForms(t *testing.T) {
	delayed := func(cwnd, rtt, base float64) View {
		return View{Cwnd: cwnd, SSThresh: cwnd, SRTT: rtt, LastRTT: rtt * 1.05, BaseRTT: base}
	}
	states := [][]View{
		{v(10, 0.1)},
		{v(40, 0.3)},
		{delayed(22, 0.05, 0.03)},
		{v(10, 0.1), v(10, 0.1)},
		{v(8, 0.04), v(25, 0.2)},
		{v(3, 0.01), v(14, 0.08), v(40, 0.3)},
		{delayed(12, 0.05, 0.03), delayed(12, 0.06, 0.055)},
		{delayed(30, 0.02, 0.012), delayed(9, 0.11, 0.04), delayed(17, 0.07, 0.07)},
	}
	liaUncapped := func(_ Algorithm, flows []View, r int) bool {
		return NewLIA().Alpha(flows)/SumCwnd(flows) <= 1/flows[r].Cwnd
	}
	// Residuals that vanish nowhere, each with the reason and the test that
	// covers the entry's ψ instead.
	never := map[string]string{
		"cubic": "the increase follows View.Now since the epoch; PsiUncoupled is TestPsiUncoupledIsRenoPerSubflow's",
	}
	// Where each named residual vanishes.
	vanishes := map[string]func(direct Algorithm, flows []View, r int) bool{
		"coupled":   func(_ Algorithm, flows []View, _ int) bool { return len(flows) == 1 },
		"cubic":     func(Algorithm, []View, int) bool { return false },
		"dts-lia":   liaUncapped,
		"dtsep-lia": liaUncapped,
		"lia":       liaUncapped,
		"olia": func(direct Algorithm, flows []View, r int) bool {
			return direct.(*OLIA).alpha(flows, r) == 0
		},
	}
	for _, e := range table {
		if e.Psi == nil && e.Eps == nil {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			applies := vanishes[e.Name]
			if (applies != nil) != (e.Residual != "") {
				t.Fatalf("entry names residual %q but the test has regime=%v for it; keep the two in step",
					e.Residual, applies != nil)
			}
			m := &Model{ModelName: e.Name, Psi: psiOn(e)}
			direct := e.New()
			compared := 0
			for _, flows := range states {
				for r := range flows {
					if applies != nil && !applies(direct, flows, r) {
						continue
					}
					compared++
					got := m.Increase(flows, r)
					want := direct.Increase(flows, r)
					if !almostEq(got, want, 1e-12+1e-9*want) {
						t.Errorf("state %v subflow %d: model %v, direct %v",
							flows, r, got, want)
					}
				}
			}
			if compared < 3 && never[e.Name] == "" {
				t.Errorf("only %d points outside the residual; add states", compared)
			}
		})
	}
}

func TestPsiCoupledKellyVoiceForm(t *testing.T) {
	// The paper's "Coupled" decomposition is Kelly & Voice's fluid
	// algorithm: per ACK Δw_r = w_r/(Σ_k w_k)². On a single path it
	// coincides with the NSDI'11 per-ACK form 1/w_total (our direct
	// Coupled); on multiple paths the discretizations differ.
	m := &Model{ModelName: "coupled-model", Psi: PsiCoupled}
	states := [][]View{
		{v(10, 0.1), v(30, 0.2)},
		{v(10, 0.1)},
	}
	for _, flows := range states {
		for r := range flows {
			got := m.Increase(flows, r)
			want := flows[r].Cwnd / (SumCwnd(flows) * SumCwnd(flows))
			if !almostEq(got, want, 1e-12) {
				t.Errorf("subflow %d: model %v, want w_r/w_total² = %v", r, got, want)
			}
		}
	}
	single := []View{v(10, 0.1)}
	if got, want := m.Increase(single, 0), NewCoupled().Increase(single, 0); !almostEq(got, want, 1e-12) {
		t.Errorf("single path: model %v, direct %v", got, want)
	}
}

func TestPsiLIAMatchesUncappedLIA(t *testing.T) {
	m := &Model{ModelName: "lia-model", Psi: PsiLIA}
	l := NewLIA()
	// A state where the RFC cap is not binding.
	flows := []View{v(10, 0.1), v(12, 0.12)}
	for r := range flows {
		got := m.Increase(flows, r)
		want := l.Alpha(flows) / SumCwnd(flows)
		if !almostEq(got, want, 1e-12) {
			t.Errorf("subflow %d: model %v, uncapped LIA %v", r, got, want)
		}
	}
}

func TestPsiOLIAMatchesOLIABaseTerm(t *testing.T) {
	m := &Model{ModelName: "olia-model", Psi: PsiOLIA}
	o := NewOLIA()
	flows := []View{v(10, 0.1), v(10, 0.1)}
	// Symmetric lossless state: alpha_r = 0, OLIA = base term = model.
	for r := range flows {
		if got, want := m.Increase(flows, r), o.Increase(flows, r); !almostEq(got, want, 1e-12) {
			t.Errorf("subflow %d: model %v, OLIA %v", r, got, want)
		}
	}
}

func TestModelDefaultBetaHalves(t *testing.T) {
	m := &Model{ModelName: "m", Psi: PsiOLIA}
	flows := []View{v(12, 0.1)}
	if got := m.Decrease(flows, 0); got != 6 {
		t.Errorf("Decrease = %v, want 6", got)
	}
}

func TestModelPhiSubtracts(t *testing.T) {
	phi := func(flows []View, r int) float64 { return 0.01 }
	m := &Model{ModelName: "m", Psi: PsiOLIA, PhiPerAck: phi}
	base := &Model{ModelName: "b", Psi: PsiOLIA}
	flows := []View{v(12, 0.1)}
	if got, want := m.Increase(flows, 0), base.Increase(flows, 0)-0.01; !almostEq(got, want, 1e-12) {
		t.Errorf("Increase with phi = %v, want %v", got, want)
	}
}

// --- DTS ---

func TestEpsExactShape(t *testing.T) {
	if got := EpsExact(0.5); !almostEq(got, 1, 1e-12) {
		t.Errorf("EpsExact(0.5) = %v, want 1", got)
	}
	if got := EpsExact(1); got < 1.98 {
		t.Errorf("EpsExact(1) = %v, want ~1.987", got)
	}
	if got := EpsExact(0); got > 0.02 {
		t.Errorf("EpsExact(0) = %v, want ~0.013", got)
	}
	// Clamping.
	if EpsExact(-1) != EpsExact(0) || EpsExact(2) != EpsExact(1) {
		t.Error("EpsExact does not clamp ratio to [0,1]")
	}
}

func TestEpsExactMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		r1, r2 := float64(a%101)/100, float64(b%101)/100
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		e1, e2 := EpsExact(r1), EpsExact(r2)
		return e1 <= e2+1e-12 && e1 > 0 && e2 < 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEpsTaylorTracksExactNearCenter(t *testing.T) {
	// Algorithm 1's third-order fixed-point expansion is the kernel port of
	// Eq. 5. A third-order Taylor of e^x around 0 is only trustworthy for
	// |x| <= ~1, i.e. ratio in [0.40, 0.60]; outside, the kernel form
	// saturates (clamped at 0 below, approaching 2 above), which the next
	// test checks.
	for pct := int64(40); pct <= 60; pct++ {
		exact := EpsExact(float64(pct) / 100)
		taylor := float64(EpsTaylor(pct)) / 100
		if math.Abs(exact-taylor) > 0.08 {
			t.Errorf("ratio %d%%: exact %v vs taylor %v", pct, exact, taylor)
		}
	}
}

func TestEpsTaylorSaturation(t *testing.T) {
	if got := EpsTaylor(0); got != 0 {
		t.Errorf("EpsTaylor(0) = %v, want clamped 0", got)
	}
	if got := EpsTaylor(100); got < 185 || got > 200 {
		t.Errorf("EpsTaylor(100) = %v, want near 200", got)
	}
	if got := EpsTaylor(50); got != 100 {
		t.Errorf("EpsTaylor(50) = %v, want exactly 100 (eps=1)", got)
	}
}

func TestEpsTaylorBoundsProperty(t *testing.T) {
	f := func(p int16) bool {
		e := EpsTaylor(int64(p))
		return e >= 0 && e <= 200
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDTSSuppressesInflatedPath(t *testing.T) {
	d := &DTS{C: 1}
	good := View{Cwnd: 10, SRTT: 0.1, LastRTT: 0.1, BaseRTT: 0.1}
	// Same path, RTT inflated 4x by queueing: ratio 0.25 -> eps ~ 0.15.
	bad := View{Cwnd: 10, SRTT: 0.4, LastRTT: 0.4, BaseRTT: 0.1}
	flows := []View{good, bad}
	incGood := d.Increase(flows, 0)
	incBad := d.Increase(flows, 1)
	if incBad >= incGood {
		t.Errorf("DTS grows inflated path (%v) at least as fast as clean path (%v)",
			incBad, incGood)
	}
	// eps alone (excluding the rtt^2 weighting) must also shrink.
	if d.Eps(bad) >= d.Eps(good) {
		t.Errorf("eps(bad)=%v >= eps(good)=%v", d.Eps(bad), d.Eps(good))
	}
}

func TestDTSTaylorVariantCloseToExact(t *testing.T) {
	exact := &DTS{C: 1}
	taylor := &DTS{C: 1, Taylor: true}
	flows := []View{
		{Cwnd: 10, SRTT: 0.12, LastRTT: 0.12, BaseRTT: 0.07},
		{Cwnd: 10, SRTT: 0.2, LastRTT: 0.2, BaseRTT: 0.1},
	}
	for r := range flows {
		e, ty := exact.Increase(flows, r), taylor.Increase(flows, r)
		if e == 0 || math.Abs(e-ty)/e > 0.1 {
			t.Errorf("subflow %d: exact %v vs taylor %v", r, e, ty)
		}
	}
}

func TestDTSEPPricePenalty(t *testing.T) {
	d, plain := &DTS{C: 1, Priced: true, Kappa: 0.001}, &DTS{C: 1}
	free := []View{v(10, 0.1), v(10, 0.1)}
	priced := []View{v(10, 0.1), v(10, 0.1)}
	priced[0].Price = 5
	if got, want := d.Increase(priced, 0), plain.Increase(free, 0)-0.001*10*5; !almostEq(got, want, 1e-12) {
		t.Errorf("priced increase = %v, want %v", got, want)
	}
	if d.Increase(priced, 1) != plain.Increase(free, 1) {
		t.Error("price on path 0 affected path 1's increase")
	}
}

// --- wVegas ---

func TestWVegasRoundAdjustment(t *testing.T) {
	w := NewWVegas()
	// Two symmetric paths with no queueing: diff=0 < alpha -> grow by 1.
	flows := []View{v(10, 0.1), v(10, 0.1)}
	flows[0].InSlowStart = false
	cwnd, _ := w.OnRound(flows, 0)
	if cwnd != 11 {
		t.Errorf("cwnd after underutilized round = %v, want 11", cwnd)
	}
	// Heavy queueing: base 0.1, rtt 0.3 -> diff = 10*0.2/0.3 = 6.67 > alpha=5.
	congested := []View{
		{Cwnd: 10, SSThresh: 10, SRTT: 0.3, LastRTT: 0.3, BaseRTT: 0.1},
		v(10, 0.3),
	}
	cwnd, _ = w.OnRound(congested, 0)
	if cwnd != 9 {
		t.Errorf("cwnd after congested round = %v, want 9", cwnd)
	}
}

func TestWVegasSlowStartExit(t *testing.T) {
	w := NewWVegas()
	flows := []View{{Cwnd: 20, SSThresh: 1e9, SRTT: 0.2, LastRTT: 0.2, BaseRTT: 0.1, InSlowStart: true}}
	cwnd, ssthresh := w.OnRound(flows, 0)
	if ssthresh >= 1e9 {
		t.Error("wVegas did not exit slow start despite queueing")
	}
	if cwnd >= 20 {
		t.Errorf("cwnd = %v on slow-start exit, want halved", cwnd)
	}
}

func TestWVegasIncreaseIsZeroPerAck(t *testing.T) {
	w := NewWVegas()
	if w.Increase([]View{v(10, 0.1)}, 0) != 0 {
		t.Error("wVegas must not react per ACK")
	}
}

// --- DCTCP ---

func TestDCTCPAlphaConverges(t *testing.T) {
	d := NewDCTCP()
	flows := []View{v(10, 0.1)}
	// Rounds with no marks drive alpha toward 0.
	for i := 0; i < 200; i++ {
		d.OnAck(flows, 0, 10, false)
		d.OnRound(flows, 0)
	}
	if d.Alpha() > 0.01 {
		t.Errorf("alpha = %v after markless rounds, want ~0", d.Alpha())
	}
	// Fully-marked rounds drive it back toward 1.
	for i := 0; i < 200; i++ {
		d.OnAck(flows, 0, 10, true)
		d.OnRound(flows, 0)
	}
	if d.Alpha() < 0.99 {
		t.Errorf("alpha = %v after marked rounds, want ~1", d.Alpha())
	}
}

func TestDCTCPWindowReduction(t *testing.T) {
	d := NewDCTCP()
	flows := []View{v(100, 0.1)}
	// Half the ACKs marked for a while.
	var cwnd float64
	for i := 0; i < 50; i++ {
		d.OnAck(flows, 0, 5, true)
		d.OnAck(flows, 0, 5, false)
		cwnd, _ = d.OnRound(flows, 0)
	}
	want := 100 * (1 - d.Alpha()/2)
	if !almostEq(cwnd, want, 1e-9) {
		t.Errorf("cwnd = %v, want %v with alpha=%v", cwnd, want, d.Alpha())
	}
	if d.Alpha() < 0.3 || d.Alpha() > 0.7 {
		t.Errorf("alpha = %v with 50%% marks, want ~0.5", d.Alpha())
	}
}

func TestDCTCPNoMarksNoReduction(t *testing.T) {
	d := NewDCTCP()
	flows := []View{v(40, 0.1)}
	d.OnAck(flows, 0, 10, false)
	cwnd, _ := d.OnRound(flows, 0)
	if cwnd != 40 {
		t.Errorf("cwnd = %v after clean round, want unchanged 40", cwnd)
	}
}

// --- Conditions (§V-A) ---

func TestCondition1ForFriendlyAlgorithms(t *testing.T) {
	// Condition 1 is an equilibrium property: evaluate at equilibrium-like
	// states. For LIA any window allocation with all subflows sharing the
	// best path's w/RTT² works; for DTS the equilibrium has
	// E[baseRTT/RTT] = 1/2 (eps = 1).
	eqDTS := func(cwnd, rtt float64) View {
		return View{Cwnd: cwnd, SRTT: rtt, LastRTT: rtt, BaseRTT: rtt / 2}
	}
	liaStates := [][]View{
		{v(10, 0.1), v(10, 0.1)},
		{v(6, 0.03), v(22, 0.15)}, // equal w/RTT² on the best path is not required; alpha caps it
		{v(10, 0.1), v(10, 0.1), v(10, 0.1)},
	}
	for _, flows := range liaStates {
		if !SatisfiesCondition1(MustNew("lia"), flows, 1e-9) {
			h := BestPath(flows)
			t.Errorf("lia violates Condition 1 at %v: psi_h = %v",
				flows, EffectivePsi(MustNew("lia"), flows, h))
		}
	}
	dtsStates := [][]View{
		{eqDTS(10, 0.1), eqDTS(10, 0.1)},
		{eqDTS(6, 0.03), eqDTS(22, 0.15)},
	}
	for _, flows := range dtsStates {
		if !SatisfiesCondition1(MustNew("dts"), flows, 1e-9) {
			h := BestPath(flows)
			t.Errorf("dts violates Condition 1 at %v: psi_h = %v",
				flows, EffectivePsi(MustNew("dts"), flows, h))
		}
	}
}

func TestEffectivePsiRecoversModelPsi(t *testing.T) {
	m := &Model{ModelName: "m", Psi: func([]View, int) float64 { return 0.7 }}
	flows := []View{v(10, 0.1), v(20, 0.2)}
	for r := range flows {
		if got := EffectivePsi(m, flows, r); !almostEq(got, 0.7, 1e-9) {
			t.Errorf("EffectivePsi = %v, want 0.7", got)
		}
	}
}

func TestFriendlyThroughputBound(t *testing.T) {
	// EWTCP with n=4 on symmetric paths has psi = (4x)^2/(x^2*2) = 8 on
	// each path -> bound sqrt(8) ~ 2.83 > 1: not TCP-friendly (as known).
	flows := []View{v(10, 0.1), v(10, 0.1), v(10, 0.1), v(10, 0.1)}
	if b := FriendlyThroughputBound(NewEWTCP(), flows); b <= 1 {
		t.Errorf("EWTCP bound = %v, expected > 1 (not friendly)", b)
	}
	if b := FriendlyThroughputBound(NewLIA(), flows); b > 1+1e-9 {
		t.Errorf("LIA bound = %v, want <= 1", b)
	}
}

// --- cross-algorithm properties ---

func TestIncreaseNonNegativeProperty(t *testing.T) {
	// OLIA is deliberately excluded: its alpha_r term makes the increase
	// negative on max-window paths, which is how it shifts traffic.
	algs := []string{"reno", "ewtcp", "coupled", "lia", "balia", "ecmtcp", "dts"}
	f := func(w1, w2 uint8, r1, r2 uint8) bool {
		flows := []View{
			v(float64(w1%200)+1, float64(r1%200+1)/1000),
			v(float64(w2%200)+1, float64(r2%200+1)/1000),
		}
		for _, name := range algs {
			alg := MustNew(name)
			for r := range flows {
				if alg.Increase(flows, r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecreaseShrinksWindowProperty(t *testing.T) {
	algs := []string{"reno", "dctcp", "ewtcp", "coupled", "lia", "olia", "balia", "ecmtcp", "wvegas", "dts", "dtsep"}
	f := func(w1, w2 uint8, r1, r2 uint8) bool {
		flows := []View{
			v(float64(w1%200)+1, float64(r1%200+1)/1000),
			v(float64(w2%200)+1, float64(r2%200+1)/1000),
		}
		for _, name := range algs {
			alg := MustNew(name)
			for r := range flows {
				if alg.Decrease(flows, r) >= flows[r].Cwnd {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestViewRate(t *testing.T) {
	if got := v(10, 0.1).Rate(); !almostEq(got, 100, 1e-9) {
		t.Errorf("Rate = %v, want 100", got)
	}
	var zero View
	if zero.Rate() != 0 {
		t.Error("zero View should have zero rate")
	}
}

func TestSums(t *testing.T) {
	flows := []View{v(10, 0.1), v(20, 0.2)}
	if got := SumCwnd(flows); got != 30 {
		t.Errorf("SumCwnd = %v, want 30", got)
	}
	if got := SumRates(flows); !almostEq(got, 200, 1e-9) {
		t.Errorf("SumRates = %v, want 200", got)
	}
}
