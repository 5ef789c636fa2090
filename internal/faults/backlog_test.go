package faults

import "testing"

func TestBacklogTrackerZeroValueIsUnbounded(t *testing.T) {
	var tr BacklogTracker
	tr.Add(1_000_000)
	if got := tr.Overflow(); got != 0 {
		t.Fatalf("unbounded Overflow() = %d, want 0", got)
	}
	if tr.ConsumeDrop() {
		t.Fatal("unbounded tracker scheduled a drop")
	}
	if tr.Backlog() != 1_000_000 {
		t.Fatalf("backlog = %d, want 1000000", tr.Backlog())
	}
}

func TestBacklogTrackerDrainFloorsAtZero(t *testing.T) {
	tr := NewBacklogTracker(10, PolicyDropOldest)
	tr.Add(3)
	tr.Drain(100)
	if tr.Backlog() != 0 {
		t.Fatalf("backlog = %d after over-drain, want 0", tr.Backlog())
	}
	tr.Drain(5) // draining an empty buffer is a no-op
	if tr.Backlog() != 0 {
		t.Fatalf("backlog = %d, want 0", tr.Backlog())
	}
}

func TestBacklogTrackerDropOldestCountsAtConsumption(t *testing.T) {
	tr := NewBacklogTracker(2, PolicyDropOldest)
	tr.Add(5)
	if got := tr.Overflow(); got != 0 {
		t.Fatalf("drop-oldest Overflow() = %d, want 0 backpressure", got)
	}
	if tr.PendingDrops() != 3 {
		t.Fatalf("pending drops = %d, want 3", tr.PendingDrops())
	}
	// Drops are scheduled but not yet counted: Totals must stay clean
	// until rounds actually consume them.
	if tot := tr.Totals(); tot.DroppedRounds != 0 {
		t.Fatalf("totals = %+v before consumption", tot)
	}
	dropped := 0
	for r := 0; r < 10; r++ {
		if tr.ConsumeDrop() {
			dropped++
		}
	}
	if dropped != 3 {
		t.Fatalf("consumed %d drops, want 3", dropped)
	}
	if tot := tr.Totals(); tot.DroppedRounds != 3 {
		t.Fatalf("totals = %+v, want 3 dropped rounds", tot)
	}
	if tr.Backlog() != 2 {
		t.Fatalf("backlog = %d after overflow, want clamped to capacity 2", tr.Backlog())
	}
}

func TestBacklogTrackerBackpressureCountsAtOverflow(t *testing.T) {
	tr := NewBacklogTracker(2, PolicyBackpressure)
	tr.Add(5)
	if got := tr.Overflow(); got != 3 {
		t.Fatalf("backpressure Overflow() = %d, want 3", got)
	}
	if tr.ConsumeDrop() {
		t.Fatal("backpressure policy scheduled a drop")
	}
	if tot := tr.Totals(); tot.BackpressureRounds != 3 || tot.DroppedRounds != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestBacklogTrackerReset(t *testing.T) {
	tr := NewBacklogTracker(1, PolicyDropOldest)
	tr.Add(4)
	tr.Overflow()
	tr.ConsumeDrop()
	tr.Reset()
	if tr.Backlog() != 0 || tr.PendingDrops() != 0 || tr.Totals() != (Totals{}) {
		t.Fatalf("Reset left state: backlog=%d pending=%d totals=%+v",
			tr.Backlog(), tr.PendingDrops(), tr.Totals())
	}
	if tr.Capacity != 1 || tr.Policy != PolicyDropOldest {
		t.Fatal("Reset lost the configuration")
	}
}

// PendingDrops returns the drops scheduled but not yet consumed.
func (t *BacklogTracker) PendingDrops() int { return t.pendingDrops }
