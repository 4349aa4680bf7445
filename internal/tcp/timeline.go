package tcp

import "mptcpsim/internal/sim"

// Transition is one labelled instant on a Timeline.
type Transition struct {
	T     sim.Time
	Label string
}

// Timeline records a subflow's labelled state transitions over a run —
// active → dead → probing → active as its path fails and heals. The run
// record folds it in as event lines and the invariant checker reads it.
type Timeline struct {
	Events []Transition
}

// Add appends an event.
func (tl *Timeline) Add(t sim.Time, label string) {
	tl.Events = append(tl.Events, Transition{T: t, Label: label})
}

// Len reports the number of recorded events.
func (tl *Timeline) Len() int { return len(tl.Events) }
