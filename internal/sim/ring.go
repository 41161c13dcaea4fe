package sim

// qmsg is the in-queue message representation: the fields of Message
// packed into int32s, so queue pushes, pops and ring growth copy half the
// bytes. The public Message form is reconstructed only at delivery
// (OnDeliver) time. Counters and slots beyond 2^31 are outside the
// engine's operating envelope.
type qmsg struct {
	id   int32
	src  int32
	dst  int32
	born int32 // injection slot
	hops int32
}

// ring is a growable FIFO queue of messages backed by a circular buffer
// whose length is a power of two, so positions wrap with a mask. Unlike
// the naive `q = q[1:]` slice shift, popping never abandons prefix
// capacity, so sustained traffic reaches a steady state where no step
// allocates: the buffer grows (amortized doubling) only while the queue's
// high-water mark is still rising.
type ring struct {
	buf  []qmsg
	head int
	n    int
}

func (r *ring) len() int { return r.n }

// reset empties the queue without releasing its buffer, so a reused engine
// keeps every ring's high-water capacity across scenarios.
func (r *ring) reset() { r.head, r.n = 0, 0 }

// front returns a pointer to the oldest message. Only valid when len() > 0.
func (r *ring) front() *qmsg { return &r.buf[r.head] }

// at returns a pointer to the i-th queued message (0 = oldest). Only valid
// for 0 <= i < len().
func (r *ring) at(i int) *qmsg { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends a slot to the queue and returns it for the caller to fill
// in place: qmsg has too many fields to travel in registers, so a message
// passed by value would be spilled to the stack and copied again.
func (r *ring) push() *qmsg {
	if r.n == len(r.buf) {
		r.grow()
	}
	m := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return m
}

func (r *ring) pop() qmsg {
	m := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return m
}

func (r *ring) grow() {
	buf := make([]qmsg, max(2*len(r.buf), 4))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}
