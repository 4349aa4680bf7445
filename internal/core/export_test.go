package core

// Alpha exposes the current mark-fraction estimate (for tests and traces).
func (d *DCTCP) Alpha() float64 { return d.alpha }
