// Package chaos generates adversarial simulation scenarios and keeps the
// ones that break. A seeded generator samples topology, algorithm, link
// parameters, workload and a random fault schedule in a flat vocabulary of
// its own, which Scenario.Lower translates to the backend.Scenario every
// front-end builds from; each scenario runs under collecting invariants
// and an internal/supervise watchdog. A
// failing scenario is shrunk — fewer fault clauses, less cross traffic,
// fewer subflows, a smaller topology, a shorter horizon — to a minimal
// repro that still fails with the same signature, then written as a
// replayable JSON artifact into a quarantine corpus (see mptcp-sim -soak
// and -replay).
//
// Determinism: scenario i of a campaign depends only on (campaign seed, i),
// and every run seeds its own engine from the scenario, so soak results are
// identical for any worker count — with one caveat: the wall-clock timeout
// is a nondeterministic backstop against true hangs, and campaigns that
// need strict determinism should bound runs by event budget (they do by
// default).
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mptcpsim/internal/backend"
	"mptcpsim/internal/check"
	"mptcpsim/internal/flows"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/obsv"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/supervise"
	"mptcpsim/internal/topo"
)

// Scenario is one generated chaos run, fully determined by its fields: the
// JSON encoding is the replay format. Fault schedules use the -fault
// grammar (see internal/faults.Parse) so a quarantined artifact can be
// reproduced by hand with mptcp-sim flags.
type Scenario struct {
	Seed       int64    `json:"seed"`
	Topo       string   `json:"topo"` // twopath | hetwireless | fattree | vl2 | bcube
	Arity      int      `json:"arity,omitempty"`
	Subflows   int      `json:"subflows"`
	Algorithm  string   `json:"algorithm"`
	RateMbps   [2]int64 `json:"rate_mbps,omitempty"` // twopath per-path rates
	DelayMs    int      `json:"delay_ms,omitempty"`
	QueueLimit int      `json:"queue_limit,omitempty"`
	LossProb   float64  `json:"loss_prob,omitempty"`
	HorizonMs  int      `json:"horizon_ms"`
	TransferMB int      `json:"transfer_mb,omitempty"` // 0 = long-lived source
	Cross      bool     `json:"cross,omitempty"`       // Pareto on-off cross traffic
	Faults     string   `json:"faults,omitempty"`      // faults.Parse grammar
	// Failpoint deliberately breaks the run to exercise the quarantine
	// machinery: "panic@T" panics mid-run, "spin@T=D" burns D of wall
	// clock (a simulated hang), "trip@T" injects a synthetic invariant
	// violation. Empty for organically generated scenarios.
	Failpoint string `json:"failpoint,omitempty"`
	// ChurnFlows, when positive on a datacenter topology, runs an open-loop
	// flow population (internal/flows) alongside the measured connection:
	// up to ChurnFlows flows arrive Poisson at ChurnRate flows/sec across
	// random host pairs, admission-capped at ChurnCap concurrent flows
	// (0 = uncapped). The run fails if the population's flow accounting
	// breaks (offered != completed + shed + cut).
	ChurnFlows int     `json:"churn_flows,omitempty"`
	ChurnRate  float64 `json:"churn_rate,omitempty"`
	ChurnCap   int     `json:"churn_cap,omitempty"`
}

func (sc Scenario) String() string {
	s := fmt.Sprintf("%s/%s sub=%d seed=%d horizon=%dms", sc.Topo, sc.Algorithm, sc.Subflows, sc.Seed, sc.HorizonMs)
	if sc.ChurnFlows > 0 {
		s += fmt.Sprintf(" churn=%d@%.0f/s cap=%d", sc.ChurnFlows, sc.ChurnRate, sc.ChurnCap)
	}
	if sc.Faults != "" {
		s += " faults=" + sc.Faults
	}
	if sc.Failpoint != "" {
		s += " failpoint=" + sc.Failpoint
	}
	return s
}

// Horizon returns the run horizon in simulated time.
func (sc Scenario) Horizon() sim.Time { return sim.Time(sc.HorizonMs) * sim.Millisecond }

// chaosAlgorithms is the pool the generator samples; it spans loss-based,
// delay-based and energy-aware controllers plus single-path baselines.
var chaosAlgorithms = []string{
	"reno", "cubic", "ewtcp", "coupled", "lia", "olia", "balia", "ecmtcp",
	"vegas", "wvegas", "dts", "dts-lia", "dtsep", "dtsep-lia",
}

// GenerateAt derives scenario i of a campaign from the campaign seed. The
// derivation depends only on (seed, i), never on which worker runs it.
func GenerateAt(seed int64, i int) Scenario {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + int64(i)*0x1CE4E5B9 + 0x4F6CDD1D))
	sc := Scenario{
		Seed:      seed + int64(i),
		Algorithm: chaosAlgorithms[rng.Intn(len(chaosAlgorithms))],
	}
	switch p := rng.Intn(10); {
	case p < 4:
		sc.Topo = "twopath"
	case p < 6:
		sc.Topo = "hetwireless"
	case p < 8:
		sc.Topo = "fattree"
	case p < 9:
		sc.Topo = "vl2"
	default:
		sc.Topo = "bcube"
	}
	switch sc.Topo {
	case "twopath":
		sc.Subflows = 2 + rng.Intn(3)
		sc.RateMbps = [2]int64{int64(5 + rng.Intn(96)), int64(5 + rng.Intn(96))}
		sc.DelayMs = 2 + rng.Intn(80)
		sc.QueueLimit = 20 + rng.Intn(180)
		sc.HorizonMs = 2000 + rng.Intn(6000)
		sc.Cross = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			sc.LossProb = float64(rng.Intn(40)) / 1000 // up to 4%
		}
		if rng.Intn(2) == 0 {
			sc.TransferMB = 1 + rng.Intn(8)
		}
	case "hetwireless":
		sc.Subflows = 2
		sc.HorizonMs = 2000 + rng.Intn(6000)
		sc.Cross = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			sc.LossProb = float64(rng.Intn(40)) / 1000
		}
	case "fattree":
		sc.Arity = 2 * (1 + rng.Intn(2)) // K = 2 or 4
		sc.Subflows = 1 + rng.Intn(4)
		sc.HorizonMs = 1000 + rng.Intn(2000)
		genChurn(rng, &sc)
	case "vl2":
		sc.Arity = 2 + rng.Intn(3) // ToRs
		sc.Subflows = 1 + rng.Intn(4)
		sc.HorizonMs = 1000 + rng.Intn(2000)
		genChurn(rng, &sc)
	case "bcube":
		sc.Arity = 2 + rng.Intn(2) // N
		sc.Subflows = 1 + rng.Intn(3)
		sc.HorizonMs = 1000 + rng.Intn(2000)
		genChurn(rng, &sc)
	}
	sc.Faults = genFaults(rng, sc)
	return sc
}

// genChurn arms an open-loop churn population on half of the datacenter
// scenarios: an arrival rate crossed with an admission cap (present or
// absent), so fault schedules run against both uncapped growth and
// deterministic shedding.
func genChurn(rng *rand.Rand, sc *Scenario) {
	if rng.Intn(2) != 0 {
		return
	}
	sc.ChurnFlows = 100 + rng.Intn(700)
	sc.ChurnRate = float64(100 + rng.Intn(400))
	if rng.Intn(2) == 0 {
		sc.ChurnCap = 20 + rng.Intn(80)
	}
}

// genFaults samples 0-2 clauses of the -fault grammar, every instant
// strictly inside the horizon so Validate accepts the schedule.
func genFaults(rng *rand.Rand, sc Scenario) string {
	n := rng.Intn(3)
	if n == 0 {
		return ""
	}
	at := func(lo, hi float64) string {
		f := lo + rng.Float64()*(hi-lo)
		return fmt.Sprintf("%dms", int(f*float64(sc.HorizonMs)))
	}
	targets := 2
	if sc.Subflows < 2 {
		targets = 1
	}
	var clauses []string
	for c := 0; c < n; c++ {
		target := fmt.Sprintf("path%d", rng.Intn(targets))
		var d string
		switch rng.Intn(5) {
		case 0:
			d = fmt.Sprintf("down@%s,up@%s", at(0.1, 0.4), at(0.5, 0.9))
		case 1:
			// period 20-30% of horizon, down for a third of the period
			p := sc.HorizonMs / 5
			d = fmt.Sprintf("flap@%s+%dms/%dms", at(0.1, 0.3), p, p/3)
		case 2:
			d = fmt.Sprintf("loss@%s=%.3f", at(0.2, 0.8), float64(rng.Intn(80))/1000)
		case 3:
			d = fmt.Sprintf("rate@%s=%dMbps", at(0.2, 0.8), 1+rng.Intn(50))
		default:
			d = fmt.Sprintf("delay@%s=%dms", at(0.2, 0.8), 1+rng.Intn(150))
		}
		clauses = append(clauses, target+":"+d)
	}
	return strings.Join(clauses, ";")
}

// Lower translates the generator's flat integer vocabulary — the sampling
// space of GenerateAt and Shrink and the artifact format — into the one run
// description every front-end builds from. Arity sizes whichever fabric Topo
// names, the link fields parameterize twopath (each topology reads only its
// own); LossProb becomes a loss fault on path0 from t = 0.
func (sc Scenario) Lower() backend.Scenario {
	out := backend.Scenario{
		Topology: sc.Topo, Algorithm: sc.Algorithm, Subflows: sc.Subflows,
		Net: topo.Params{
			Size:  sc.Arity,
			Rates: [2]int64{sc.RateMbps[0] * netem.Mbps, sc.RateMbps[1] * netem.Mbps},
			Delay: sim.Time(sc.DelayMs) * sim.Millisecond,
			Queue: sc.QueueLimit,
		},
		TransferBytes: int64(sc.TransferMB) << 20,
		Cross:         sc.Cross,
		Faults:        sc.Faults,
		EnergyModel:   "none",
		Seed:          sc.Seed,
		Horizon:       sc.Horizon(),
	}
	if sc.LossProb > 0 {
		out.Faults = strings.TrimSuffix(fmt.Sprintf("path0:loss@0s=%g;%s", sc.LossProb, sc.Faults), ";")
	}
	if sc.ChurnFlows > 0 {
		out.Population = &flows.Config{
			Algorithm:     sc.Algorithm,
			TotalFlows:    sc.ChurnFlows,
			MaxConcurrent: sc.ChurnCap,
			Arrivals:      flows.Poisson{Rate: sc.ChurnRate},
		}
	}
	return out
}

// Run executes the scenario through backend.Run under collecting
// invariants and the watchdog (nil-safe). It returns the failpoint's parse
// error, the build error (bad algorithm, unresolvable fault target, schedule
// past horizon: in a soak these quarantine just the one scenario), a broken
// population ledger, or the collected invariant failure, in that order; a
// panic out of the engine propagates to the supervisor as usual.
func (sc Scenario) Run(wd *supervise.Watchdog) error {
	at, fire, err := sc.failpoint()
	if err != nil {
		return err
	}
	_, err = backend.Run(sc.Lower(), obsv.Config{Check: obsv.CheckCollect}, wd, backend.Stages{
		Attach: func(w *backend.World, obs *obsv.Observer) {
			if inv := obs.Inv(); fire != nil {
				w.Eng.Schedule(sim.FromDuration(at), func() { fire(inv) })
			}
			w.Observe(obs)
		},
	})
	return err
}

// runUnder runs the scenario once under a supervisor of its own holding
// budget — no retries (chaos failures are deterministic by construction), no
// shared counters — for whoever name says is asking ("replay", "shrink").
// The soak's own runs go through the campaign supervisor, which counts them.
func (sc Scenario) runUnder(budget supervise.Budget, name string) supervise.Report {
	return supervise.New(budget).Run(context.Background(),
		supervise.RunID{Seed: sc.Seed, Scenario: name, Phase: "chaos"}, sc.Run)
}

// failpoint parses the scenario's deliberate failure: the instant it fires
// at, and what it does there given the run's invariant checker (nil: none).
func (sc Scenario) failpoint() (time.Duration, func(inv *check.Invariants), error) {
	if sc.Failpoint == "" {
		return 0, nil, nil
	}
	kind, arg, ok := strings.Cut(sc.Failpoint, "@")
	if !ok {
		return 0, nil, fmt.Errorf("chaos: failpoint %q has no @time", sc.Failpoint)
	}
	if kind != "panic" && kind != "spin" && kind != "trip" {
		return 0, nil, fmt.Errorf("chaos: unknown failpoint %q (want panic/spin/trip)", kind)
	}
	var hangArg string
	if kind == "spin" {
		if arg, hangArg, ok = strings.Cut(arg, "="); !ok {
			return 0, nil, fmt.Errorf("chaos: spin failpoint %q needs @time=duration", sc.Failpoint)
		}
	}
	at, err := time.ParseDuration(arg)
	var hang time.Duration
	if err == nil && kind == "spin" {
		hang, err = time.ParseDuration(hangArg)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("chaos: failpoint %q: %v", sc.Failpoint, err)
	}
	return at, func(inv *check.Invariants) {
		switch kind {
		case "panic":
			panic(fmt.Sprintf("chaos: injected panic failpoint at %v", at))
		case "spin":
			// A simulated hang: burn real wall clock inside one event so
			// only the wall-deadline watchdog can end the run.
			time.Sleep(hang)
		default:
			inv.Inject(check.Violation{T: sim.FromDuration(at), Invariant: "chaos.failpoint", Detail: "injected violation"})
		}
	}, nil
}

// Signature classifies a RunError into a stable failure signature: the
// shrinker only accepts a smaller scenario that fails with the SAME
// signature, and quarantine artifacts are named by it.
func Signature(re *supervise.RunError) string {
	if re == nil {
		return ""
	}
	switch re.Kind {
	case supervise.KindTimeout:
		return "timeout"
	case supervise.KindBudget:
		return "budget"
	case supervise.KindInvariant:
		return "invariant." + re.Invariant
	case supervise.KindPanic:
		return "panic"
	}
	return "error"
}
