// Package fifo provides the first-in first-out queue behind the
// simulator's packet queues (the NIC receive ring, socket buffers). A
// queue that drains reuses its backing array from the start, so a
// steady push/pop cycle allocates nothing.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element in buf
}

// Len reports how many elements are queued.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v. When the backing array is full but its front holds
// already-popped slots, the live elements slide down first, so a queue
// that never quite drains stays bounded by its peak length.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest element; ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v, true
}
