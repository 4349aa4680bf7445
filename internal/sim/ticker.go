package sim

// Ticker runs fn every period of simulated time — the one way periodic work
// is scheduled (package comment, "Periodic work"). It is its own Handler, so
// a tick allocates nothing. Hold it by value in the struct that owns the
// work; once started it is queued by address and must not be copied.
type Ticker struct {
	eng    *Engine
	period Time
	fn     func()
	timer  Timer // the queued tick; inert while fn runs and once stopped
	on     bool
}

// MakeTicker returns a stopped ticker that will call fn every period on eng.
func MakeTicker(eng *Engine, period Time, fn func()) Ticker {
	return Ticker{eng: eng, period: period, fn: fn}
}

// Start queues the first tick one period from now. Starting a running ticker
// leaves it alone: there is only ever one chain.
func (t *Ticker) Start() {
	if t.on {
		return
	}
	t.on = true
	t.timer = t.eng.AtHandler(t.eng.now+t.period, t)
}

// StartNow is Start with the first tick now: fn runs inline, then every
// period from now, exactly as if a tick had fired at this instant — so fn may
// stop the ticker before it ever queues.
func (t *Ticker) StartNow() {
	if t.on {
		return
	}
	t.on = true
	t.Fire()
}

// Stop unlinks the queued tick, so a stopped ticker owns no event. It may be
// called from inside fn, which ends the chain at that tick.
func (t *Ticker) Stop() {
	t.on = false
	t.timer.Stop()
}

// Running reports whether the ticker is started and not stopped.
func (t *Ticker) Running() bool { return t.on }

// Fire implements Handler: one tick. The next tick is queued after fn
// returns, behind whatever fn scheduled, unless fn stopped the ticker (or
// stopped and restarted it, which already queued one).
func (t *Ticker) Fire() {
	t.fn()
	if t.on && !t.timer.Active() {
		t.timer = t.eng.AtHandler(t.eng.now+t.period, t)
	}
}
