package des

import (
	"slices"

	"repro/internal/clock"
)

// Queue is the simulator's event queue: a 4-ary min-heap over (at, seq)
// that stores events by value. seq is the push order, so events at an
// equal time pop first-pushed first — the determinism contract every
// experiment's committed output rests on. Once the backing slice has
// grown to the peak queue depth, Push and Pop allocate nothing.
//
// The zero Queue is empty and ready to use.
type Queue[E any] struct {
	items []queued[E]
	seq   uint64
}

type queued[E any] struct {
	at  clock.Time
	seq uint64
	ev  E
}

func (a *queued[E]) before(b *queued[E]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Len reports the number of queued events.
func (q *Queue[E]) Len() int { return len(q.items) }

// Grow reserves room for n more events without reallocating.
func (q *Queue[E]) Grow(n int) { q.items = slices.Grow(q.items, n) }

// Push queues ev at time at, behind every event already queued at at.
func (q *Queue[E]) Push(at clock.Time, ev E) {
	q.seq++
	x := queued[E]{at: at, seq: q.seq, ev: ev}
	q.items = append(q.items, x)
	// Sift the hole up from the new leaf.
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q.items[p]) {
			break
		}
		q.items[i] = q.items[p]
		i = p
	}
	q.items[i] = x
}

// Peek returns the earliest event's time; ok is false when the queue is
// empty.
func (q *Queue[E]) Peek() (at clock.Time, ok bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].at, true
}

// Pop removes and returns the earliest event. It panics on an empty
// queue.
func (q *Queue[E]) Pop() (clock.Time, E) {
	top := q.items[0]
	n := len(q.items) - 1
	x := q.items[n]
	q.items[n] = queued[E]{} // drop the reference for the collector
	q.items = q.items[:n]
	if n > 0 {
		// Sift the hole down from the root, then drop the old last
		// leaf into it.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for k := c + 1; k < c+4 && k < n; k++ {
				if q.items[k].before(&q.items[m]) {
					m = k
				}
			}
			if !q.items[m].before(&x) {
				break
			}
			q.items[i] = q.items[m]
			i = m
		}
		q.items[i] = x
	}
	return top.at, top.ev
}
