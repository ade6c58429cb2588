package main

import (
	"sync"
	"time"
)

// schedule returns the due offsets of a fixed-rate open-loop arrival
// process: k/rate for k = 0, 1, ... while the offset is inside window.
// A non-positive rate schedules nothing.
func schedule(rate float64, window time.Duration) []time.Duration {
	if rate <= 0 || window <= 0 {
		return nil
	}
	var due []time.Duration
	for k := 0; ; k++ {
		d := time.Duration(float64(k) / rate * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// pacer hands scheduled arrivals, in order, to a fixed set of worker
// slots. An arrival due while every slot is busy waits for one; that wait
// is queueing and belongs to the request's latency, which is therefore
// timed from the due time. The pacer also measures its own lateness: how
// long after an arrival could start (due and a slot free) it actually did.
type pacer struct {
	start time.Time
	end   time.Time
	due   []time.Duration

	mu   sync.Mutex
	next int
	// lag is the generator's own lateness per arrival (ms); queue is the
	// wait for a free slot (ms).
	lag   dist
	queue dist
	// missed counts arrivals due inside the window that never started
	// because the window closed first.
	missed int
}

func newPacer(start time.Time, window time.Duration, rate float64) *pacer {
	return &pacer{start: start, end: start.Add(window), due: schedule(rate, window)}
}

// take blocks until the next arrival is due and returns its index and due
// time. ok is false once the schedule is exhausted or the window closed.
func (p *pacer) take() (idx int, due time.Time, ok bool) {
	p.mu.Lock()
	if p.next >= len(p.due) {
		p.mu.Unlock()
		return 0, time.Time{}, false
	}
	idx = p.next
	p.next++
	p.mu.Unlock()

	due = p.start.Add(p.due[idx])
	ready := time.Now()
	if ready.After(p.end) {
		p.mu.Lock()
		p.missed += len(p.due) - idx
		p.next = len(p.due)
		p.mu.Unlock()
		return 0, time.Time{}, false
	}
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	started := time.Now()
	could := due
	if ready.After(due) {
		could = ready
	}
	p.mu.Lock()
	p.lag.add(ms(started.Sub(could)))
	p.queue.add(ms(started.Sub(due)))
	p.mu.Unlock()
	return idx, due, true
}

// behind reports whether the generator failed to keep its schedule: more
// arrivals went unstarted at the window's close than there are slots to
// absorb a momentary burst.
func (p *pacer) behind(slots int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.missed > slots
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
