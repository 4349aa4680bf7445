package netem

// BytesDelivered reports the payload bytes fully forwarded (queued packets'
// sizes are read off them: they still belong to the link).
func (l *Link) BytesDelivered() uint64 {
	out := l.sentBytes
	for n, p := l.settle(), l.tail; n > 0; n, p = n-1, p.prev {
		out -= uint64(p.Size)
	}
	return out
}

// Utilization reports the fraction of [0, now] the link spent serializing. The
// queue drains back to back: the unspent part of busyTime is busyUntil − now.
func (l *Link) Utilization() float64 {
	now := l.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(l.busyTime-max(0, l.busyUntil-now)) / float64(now)
}
