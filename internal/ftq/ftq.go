// Package ftq provides the Fetch Target Queue: the bounded FIFO that
// decouples the Instruction Address Generator from the Instruction
// Fetch Unit in an FDIP front-end (paper Section 2.1). Each element is
// one predicted basic block; the queue's depth (paper: 24) bounds how
// far the BPU can run ahead of fetch.
//
// The queue is a fixed ring of slots that callers fill and read in
// place: Alloc hands out the tail slot for the producer to fill, Front
// exposes the head slot to the consumer, and Drop retires it. No
// element is ever copied in or out, and slots are never zeroed, so any
// storage an element owns (a slice's backing array, say) stays with its
// slot and is reused when the slot is next allocated. The queue is
// generic so the front-end can store its own block type while tests
// exercise the container in isolation.
package ftq

// Queue is a bounded FIFO ring of slots. The zero value is unusable;
// use New. Not safe for concurrent use.
type Queue[T any] struct {
	buf   []T
	head  int
	count int
}

// New returns an empty queue with the given capacity (minimum 1).
func New[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{buf: make([]T, capacity)}
}

// Len returns the number of live slots.
func (q *Queue[T]) Len() int { return q.count }

// Cap returns the capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.count == len(q.buf) }

// Empty reports whether the queue has no live slots.
func (q *Queue[T]) Empty() bool { return q.count == 0 }

// Alloc appends a slot at the tail and returns it for the caller to
// fill, or nil when the queue is full. The slot still holds whatever
// element last occupied it; the caller overwrites what it needs.
func (q *Queue[T]) Alloc() *T {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	if q.Full() {
		return nil
	}
	s := &q.buf[(q.head+q.count)%len(q.buf)]
	q.count++
	return s
}

// Front returns the oldest live slot, or nil when the queue is empty.
func (q *Queue[T]) Front() *T {
	if q.count == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Drop retires the oldest live slot; it reports false when the queue is
// empty. The slot's contents are left in place until a later Alloc
// hands it out again.
func (q *Queue[T]) Drop() bool {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	if q.count == 0 {
		return false
	}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return true
}

// Reset retires every live slot at once (a pipeline squash) without
// touching their contents.
func (q *Queue[T]) Reset() {
	if invariantsEnabled {
		ftqCheckInvariants(q)
	}
	q.head, q.count = 0, 0
}

// Clone returns an independent copy of the queue: live slots are
// deep-copied through cloneElem, and every other slot starts zero.
func (q *Queue[T]) Clone(cloneElem func(*T) T) *Queue[T] {
	n := &Queue[T]{buf: make([]T, len(q.buf)), head: q.head, count: q.count}
	for i := 0; i < q.count; i++ {
		idx := (q.head + i) % len(q.buf)
		n.buf[idx] = cloneElem(&q.buf[idx])
	}
	return n
}
