package core

// AdmissionPaused reports whether a pending join holds the session's job
// admission paused. Tests use it to order a Submit after a Join.
func (se *Session) AdmissionPaused() bool {
	se.sched.mu.Lock()
	defer se.sched.mu.Unlock()
	return se.sched.paused > 0
}
