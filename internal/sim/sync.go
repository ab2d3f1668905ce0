package sim

import "fmt"

// Cond is a FIFO condition variable: processes Wait on it and are resumed
// in waiting order by Signal/Broadcast.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process until signalled.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.block()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.unblock()
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.unblock()
	}
	c.waiters = nil
}

// Resource is a counted resource with FIFO acquisition (a semaphore with
// fairness), e.g. PPE hardware threads.
type Resource struct {
	capacity int
	inUse    int
	cond     Cond
}

// NewResource creates a resource with the given capacity.
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource capacity %d", capacity))
	}
	return &Resource{capacity: capacity}
}

// Acquire blocks the process until n units are available, then takes them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
	}
	for r.inUse+n > r.capacity {
		r.cond.Wait(p)
	}
	r.inUse += n
}

// Release returns n units and wakes waiters.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: release below zero")
	}
	r.cond.Broadcast()
}

// InUse reports the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Queue is a bounded FIFO channel between processes (the model for Cell
// mailboxes). Send blocks when full, Recv blocks when empty.
type Queue struct {
	items    []interface{}
	capacity int
	notFull  Cond
	notEmpty Cond
}

// NewQueue creates a queue with the given capacity (must be positive).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: queue capacity %d", capacity))
	}
	return &Queue{capacity: capacity}
}

// Send enqueues v, blocking while the queue is full.
func (q *Queue) Send(p *Proc, v interface{}) {
	for len(q.items) >= q.capacity {
		q.notFull.Wait(p)
	}
	q.items = append(q.items, v)
	q.notEmpty.Signal()
}

// Recv dequeues the oldest item, blocking while the queue is empty.
func (q *Queue) Recv(p *Proc) interface{} {
	for len(q.items) == 0 {
		q.notEmpty.Wait(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.notFull.Signal()
	return v
}

// Server models a pipelined fixed-rate device (an EIB ring, a memory
// channel): requests serialize in FIFO order without needing a process
// context. Reserve returns the completion time of a request of the given
// duration issued now.
type Server struct {
	nextFree Time
}

// Reserve books the server for dur starting no earlier than now, returning
// the completion time.
func (s *Server) Reserve(now Time, dur Time) Time {
	start := now
	if s.nextFree > start {
		start = s.nextFree
	}
	s.nextFree = start + dur
	return s.nextFree
}

// MultiServer is a bank of identical Servers (the EIB's four rings):
// Reserve picks the earliest-available channel.
type MultiServer struct {
	channels []Server
}

// NewMultiServer creates a bank of n servers.
func NewMultiServer(n int) *MultiServer {
	if n <= 0 {
		panic(fmt.Sprintf("sim: multiserver size %d", n))
	}
	return &MultiServer{channels: make([]Server, n)}
}

// Reserve books the channel that can start earliest.
func (m *MultiServer) Reserve(now Time, dur Time) Time {
	best := 0
	for i := 1; i < len(m.channels); i++ {
		if m.channels[i].nextFree < m.channels[best].nextFree {
			best = i
		}
	}
	return m.channels[best].Reserve(now, dur)
}
