package core

// AdmissionPaused reports whether a pending join holds the session's job
// admission paused. Tests use it to order a Submit after a Join.
func (se *Session) AdmissionPaused() bool {
	se.sched.mu.Lock()
	defer se.sched.mu.Unlock()
	return se.sched.paused > 0
}

// edgeValue is edge i's value in a Gather row's edge values: w[i], or 1 when
// w is nil (an unweighted graph). The test programs fold with it.
func edgeValue(w []float32, i int) float64 {
	if w == nil {
		return 1
	}
	return float64(w[i])
}

// EdgeValue exports edgeValue to the external test package.
var EdgeValue = edgeValue

// SetInitialQueueCap sets the send-queue capacity servers start their
// Senders at, returning a func that restores the previous value. Tests use
// it to force backpressure on small graphs.
func SetInitialQueueCap(n int) (restore func()) {
	prev := initialQueueCap
	initialQueueCap = n
	return func() { initialQueueCap = prev }
}
