package sim

// ring is a FIFO run queue: a power-of-two circular buffer indexed from a
// moving head, so neither push nor pop shifts or reallocates once the buffer
// has grown to the queue's high-water depth.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *ring[T]) len() int { return q.n }

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest element, zeroing its slot so the buffer
// does not retain what the element pointed to. The queue must not be empty.
func (q *ring[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the buffer, unrolling the contents to start at index 0.
func (q *ring[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// take empties the queue and hands over its buffer, cleared, so the buffer
// keeps nothing the queue's elements pointed to.
func (q *ring[T]) take() []T {
	buf := q.buf
	clear(buf)
	*q = ring[T]{}
	return buf
}
