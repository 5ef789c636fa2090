package faults

// BacklogTracker is the deterministic syndrome-buffer model shared by the
// fault injector and the streaming decoder: it tracks the rounds queued
// behind the decoder in excess of steady state and resolves overflow
// under the configured policy. It draws no randomness — callers decide
// *why* the backlog moves (a stall spike, a decode window over the ESM
// round budget); the tracker only accounts for it, so identical inputs
// always produce identical drop/backpressure schedules.
//
// Drop accounting matches the injector's original semantics bit-for-bit:
// drop-oldest overflow schedules drops at overflow time, but each drop is
// counted in Totals only when a later round consumes it (ConsumeDrop);
// backpressure rounds are counted at overflow time. The zero value is an
// unbounded buffer that never drops or backpressures.
type BacklogTracker struct {
	// Capacity is the buffer size in ESM rounds (0 = unbounded); Policy
	// selects the overflow behaviour.
	Capacity int    //xqlint:persistent configuration; Reset keeps it by documented contract
	Policy   Policy //xqlint:persistent configuration; Reset keeps it by documented contract

	backlog      int
	pendingDrops int
	totals       Totals
}

// NewBacklogTracker returns a tracker over a buffer of the given
// capacity in rounds (0 = unbounded) under the given overflow policy.
func NewBacklogTracker(capacityRounds int, policy Policy) BacklogTracker {
	return BacklogTracker{Capacity: capacityRounds, Policy: policy}
}

// Add queues n more rounds behind the decoder.
//
//xqlint:noalloc per-round accounting
func (t *BacklogTracker) Add(n int) {
	if n > 0 {
		t.backlog += n
	}
}

// Drain retires up to n queued rounds.
func (t *BacklogTracker) Drain(n int) {
	if n <= 0 || t.backlog == 0 {
		return
	}
	t.backlog -= n
	if t.backlog < 0 {
		t.backlog = 0
	}
}

// Overflow resolves any excess over the buffer capacity under the
// policy: drop-oldest schedules the excess as pending drops (consumed by
// the next ConsumeDrop calls), backpressure returns the excess as rounds
// the ESM schedule must idle (counted in Totals now).
func (t *BacklogTracker) Overflow() int {
	if t.Capacity <= 0 || t.backlog <= t.Capacity {
		return 0
	}
	excess := t.backlog - t.Capacity
	t.backlog = t.Capacity
	switch t.Policy {
	case PolicyDropOldest:
		t.pendingDrops += excess
		return 0
	case PolicyBackpressure:
		t.totals.BackpressureRounds += excess
		return excess
	}
	return 0
}

// ConsumeDrop consumes one scheduled drop, if any, counting it in
// Totals. Callers invoke it once per syndrome round; true means the
// round's detection events are lost.
func (t *BacklogTracker) ConsumeDrop() bool {
	if t.pendingDrops == 0 {
		return false
	}
	t.pendingDrops--
	t.totals.DroppedRounds++
	return true
}

// Backlog returns the rounds currently queued.
func (t *BacklogTracker) Backlog() int { return t.backlog }

// Totals returns the accumulated drop/backpressure accounting.
func (t *BacklogTracker) Totals() Totals { return t.totals }

// Reset drains the buffer and clears the accounting, keeping the
// configuration.
//
//xqlint:noalloc plain field zeroing
func (t *BacklogTracker) Reset() {
	t.backlog = 0
	t.pendingDrops = 0
	t.totals = Totals{}
}
