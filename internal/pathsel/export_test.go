package pathsel

// Suspensions reports how many path-suspension decisions were taken.
func (s *Selector) Suspensions() int { return s.suspended }
