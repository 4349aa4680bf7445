package sim

// Deadline calls fn at the latest deadline set, unless it is cleared or
// stopped first (package comment, "Deadlines"). It is its own Handler, so
// neither Set nor a tick allocates. Hold it by value in its owner; once set it
// is queued by address and must not be copied.
type Deadline struct {
	eng *Engine
	fn  func()
	at  Time  // the deadline; 0 when none is set
	id  int32 // slab slot of the queued tick; 0 when none is queued
}

// MakeDeadline returns an idle deadline that will call fn on eng.
func MakeDeadline(eng *Engine, fn func()) Deadline { return Deadline{eng: eng, fn: fn} }

// Set moves the deadline to at, which must be positive. Only an idle deadline
// queues a tick; a queued one chases at when it fires.
func (d *Deadline) Set(at Time) {
	d.at = at
	if d.id == 0 {
		d.id = d.eng.push(at, d)
	}
}

// At returns the deadline, 0 when none is set.
func (d *Deadline) At() Time { return d.at }

// Clear forgets the deadline; a queued tick still fires, and does nothing.
func (d *Deadline) Clear() { d.at = 0 }

// Stop forgets the deadline and unlinks the queued tick.
func (d *Deadline) Stop() {
	d.at = 0
	if d.id != 0 {
		d.eng.cancel(d.id)
		d.id = 0
	}
}

// Fire implements Handler: one tick. It re-queues at a deadline that moved
// later, and calls fn at a due one with the deadline still set.
func (d *Deadline) Fire() {
	d.id = 0
	switch {
	case d.at == 0:
	case d.eng.now < d.at:
		d.id = d.eng.push(d.at, d)
	default:
		d.fn()
	}
}
