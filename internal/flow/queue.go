package flow

import "time"

// releaseQueue holds an assembler's unreleased flows, open and closed, in
// creation order: a ring of pointers. Packets arrive in time order, so
// creation order never decreases in First, and the closed flows ahead
// of the oldest open one are in canonical order but for ties on First.
// A flow is closed once it has left its assembler's idle list.
type releaseQueue struct {
	ring    []*Flow // len is 0 or a power of two
	head, n int
	// scan is how many queued flows, from the head, are known to be
	// closed: the oldest open flow is at or after it, and flows never
	// reopen, so the scan only moves forward.
	scan int
}

func (q *releaseQueue) push(f *Flow) {
	if q.n == len(q.ring) {
		ring := make([]*Flow, max(64, 2*len(q.ring)))
		for i := range q.n {
			ring[i] = q.at(i)
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = f
	q.n++
}

// at returns the i-th queued flow from the head.
func (q *releaseQueue) at(i int) *Flow { return q.ring[(q.head+i)&(len(q.ring)-1)] }

// pop drops the head flow.
func (q *releaseQueue) pop() {
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.scan = max(q.scan-1, 0)
}

// release appends to dst, and drops, the closed flows at the head of the
// queue whose First is strictly before both the oldest open flow's and
// now, the newest packet's timestamp: every flow still open or yet to
// start sorts after them. The bound is strict because the tuple orders
// flows that start at one instant, so a closed flow may sort after an
// open or future one it ties.
func (q *releaseQueue) release(dst []*Flow, now time.Time) []*Flow {
	for q.scan < q.n && q.at(q.scan).prev == nil {
		q.scan++
	}
	bound := now
	if q.scan < q.n {
		bound = q.at(q.scan).First // never after now
	}
	for q.scan > 0 {
		f := q.ring[q.head]
		if !f.First.Before(bound) {
			break
		}
		dst = append(dst, f)
		q.pop()
	}
	return dst
}

// drain appends every queued flow, all of which the caller has closed,
// and empties the queue.
func (q *releaseQueue) drain(dst []*Flow) []*Flow {
	for q.n > 0 {
		dst = append(dst, q.ring[q.head])
		q.pop()
	}
	return dst
}

// reset forgets every queued flow.
func (q *releaseQueue) reset() {
	clear(q.ring)
	q.head, q.n, q.scan = 0, 0, 0
}
