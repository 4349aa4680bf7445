// Package check is the invariant-checking layer: the machinery that
// continuously proves the packet-level simulator, the congestion-control
// algorithms and the energy accounting agree with the structural rules they
// claim to follow.
//
// Invariants hooks a running simulation (connections, links, energy meters,
// the engine clock) and asserts structural invariants on a fixed simulated-
// time cadence: end-to-end segment conservation (distinct segments charged =
// delivered + in flight + re-injected), per-link packet conservation
// (arrived = delivered + dropped + queued), cwnd/ssthresh bounds, a
// non-decreasing clock, non-negative inflight and joules, the re-injection
// credit balance of the failover design, and legal subflow state
// transitions. Both CLIs expose it behind -check, and the experiment
// harness turns it on for every test run via exp.Config.Check. Invariant
// evaluation is split into snapshot extraction (thin, trusted) and pure
// functions over snapshot structs, so each invariant is independently
// testable against deliberately broken synthetic states.
//
// A failure has one type, *Failure, in both modes: the value a FailFast
// checker panics with and the error Err returns. Its Invariant method names
// the first violated invariant, so internal/supervise classifies a failed
// run by type and internal/chaos signs it by name; nothing parses the text.
//
// The differential half of validation — packet runs against the Eq. 3 fluid
// equilibrium — is backend.RunConformance, which runs every row under a
// FailFast checker from this package.
package check
