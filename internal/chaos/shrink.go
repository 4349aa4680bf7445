package chaos

import (
	"strings"

	"mptcpsim/internal/supervise"
)

// DefaultShrinkRuns caps how many candidate runs a shrink may spend; each
// candidate is a full (budgeted) simulation, so the cap bounds shrink cost
// for scenarios that resist minimisation.
const DefaultShrinkRuns = 64

// shrinker tracks the budget and the signature a candidate must preserve.
type shrinker struct {
	sig    string
	budget supervise.Budget
	runs   int
	max    int
}

// reproduces runs the candidate and reports whether it fails with the same
// signature as the original.
func (sh *shrinker) reproduces(sc Scenario) bool {
	if sh.runs >= sh.max {
		return false
	}
	sh.runs++
	rep := sc.runUnder(sh.budget, "shrink")
	return rep.Outcome.Failed() && Signature(rep.Err) == sh.sig
}

// Shrink reduces a failing scenario to a smaller one that fails with the
// same signature. The reduction order — documented in EXPERIMENTS.md and
// relied on by the corpus tests — is:
//
//  1. drop fault clauses one at a time (greedy, to a fixed point)
//  2. drop cross traffic, then halve the churn population toward zero
//  3. reduce subflows toward 2, then 1
//  4. shrink the topology arity
//  5. collapse datacenter/wireless topologies to twopath (clearing any
//     remaining churn fields — twopath has no host population)
//  6. halve the horizon (down to 500ms)
//
// Every candidate is accepted only if it still fails with the original
// signature; at most maxRuns (<=0 means DefaultShrinkRuns) candidates are
// tried. Returns the smallest accepted scenario and the number of runs
// spent. If nothing shrinks, the original comes back unchanged.
func Shrink(sc Scenario, sig string, budget supervise.Budget, maxRuns int) (Scenario, int) {
	if maxRuns <= 0 {
		maxRuns = DefaultShrinkRuns
	}
	sh := &shrinker{sig: sig, budget: budget, max: maxRuns}
	cur := sc

	// 1. Fault clauses, greedily to a fixed point.
	for changed := true; changed && cur.Faults != ""; {
		changed = false
		clauses := strings.Split(cur.Faults, ";")
		for i := range clauses {
			cand := cur
			rest := make([]string, 0, len(clauses)-1)
			rest = append(rest, clauses[:i]...)
			rest = append(rest, clauses[i+1:]...)
			cand.Faults = strings.Join(rest, ";")
			if sh.reproduces(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}

	// 2. Cross traffic.
	if cur.Cross {
		cand := cur
		cand.Cross = false
		if sh.reproduces(cand) {
			cur = cand
		}
	}

	// 2b. Churn population: halve toward zero. Below ~25 flows the
	// population is noise, so the tail collapses straight to none (which
	// also clears the rate and cap — a churn-free scenario carries no
	// churn knobs).
	for cur.ChurnFlows > 0 {
		cand := cur
		cand.ChurnFlows /= 2
		if cand.ChurnFlows < 25 {
			cand.ChurnFlows = 0
		}
		if cand.ChurnFlows == 0 {
			cand.ChurnRate, cand.ChurnCap = 0, 0
		}
		if !sh.reproduces(cand) {
			break
		}
		cur = cand
	}

	// 3. Subflows.
	for _, n := range []int{2, 1} {
		if cur.Subflows > n {
			cand := cur
			cand.Subflows = n
			if sh.reproduces(cand) {
				cur = cand
			}
		}
	}

	// 4. Arity.
	for {
		cand := cur
		switch cur.Topo {
		case "fattree":
			if cur.Arity <= 2 {
				goto arityDone
			}
			cand.Arity = cur.Arity - 2 // K stays even
		case "vl2", "bcube":
			if cur.Arity <= 2 {
				goto arityDone
			}
			cand.Arity = cur.Arity - 1
		default:
			goto arityDone
		}
		if !sh.reproduces(cand) {
			goto arityDone
		}
		cur = cand
	}
arityDone:

	// 5. Topology collapse. Twopath has a single measured route, so any
	// surviving churn population must go with the datacenter fabric.
	if cur.Topo != "twopath" {
		cand := cur
		cand.Topo = "twopath"
		cand.Arity = 0
		cand.RateMbps = [2]int64{10, 10}
		cand.DelayMs = 10
		cand.QueueLimit = 100
		cand.ChurnFlows, cand.ChurnRate, cand.ChurnCap = 0, 0, 0
		if cand.Subflows < 2 {
			cand.Subflows = 2
		}
		if sh.reproduces(cand) {
			cur = cand
		}
	}

	// 6. Horizon.
	for cur.HorizonMs > 1000 {
		cand := cur
		cand.HorizonMs = cur.HorizonMs / 2
		if cand.HorizonMs < 500 {
			cand.HorizonMs = 500
		}
		if !sh.reproduces(cand) {
			break
		}
		cur = cand
	}

	return cur, sh.runs
}
