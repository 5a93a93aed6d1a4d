// Package sim provides a deterministic discrete-event simulation (DES)
// kernel: a virtual clock, cooperative simulated processes, and capacity-
// limited FIFO resources.
//
// The cluster experiments of the paper (scale-up across processes, scale-out
// across nodes, I/O vs compute breakdowns) were run on a 4–8 node database
// cluster; this repository reproduces them on a single machine by running
// the *real* algorithms over *real* data while charging time to a virtual
// clock. Disks, CPU cores and network links are Resources; contention,
// queueing and saturation — and therefore the published scaling shapes —
// emerge from the resource model rather than from wall-clock measurement.
//
// Concurrency model: simulated processes are goroutines, but the kernel runs
// exactly one at a time (a strict handshake), so process code needs no
// locking and runs deterministically. Events at equal virtual times fire in
// scheduling order.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Proc is the handle a simulated process uses to interact with the kernel.
// All methods must be called from the process's own goroutine.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	done   bool
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// event is a scheduled wake-up of a process.
type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Kernel is a discrete-event simulation scheduler. The zero value is not
// usable; call New.
type Kernel struct {
	now     time.Duration
	seq     uint64
	events  eventHeap
	yielded chan struct{}
	parked  map[*Proc]string // blocked with no scheduled event → reason
	started bool
}

// New creates an empty simulation.
func New() *Kernel {
	return &Kernel{
		yielded: make(chan struct{}),
		parked:  make(map[*Proc]string),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Go spawns a simulated process that begins at the current virtual time.
// It may be called before Run or from inside another process.
func (k *Kernel) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	k.schedule(k.now, p)
	//turbdb:ignore goroutinelife strict handshake: the kernel resumes each proc exactly once per step and joins on yielded; Run does not return while any proc is live
	go func() {
		<-p.resume // wait for the kernel to run us the first time
		fn(p)
		p.done = true
		k.yielded <- struct{}{}
	}()
	return p
}

// schedule enqueues a wake-up for p at time at.
func (k *Kernel) schedule(at time.Duration, p *Proc) {
	k.seq++
	heap.Push(&k.events, event{at: at, seq: k.seq, proc: p})
}

// Run executes the simulation until no events remain. It returns an error if
// processes are still parked (deadlock: waiting on a resource or latch that
// will never be released). Run may be called repeatedly; virtual time is
// monotone across calls.
func (k *Kernel) Run() error {
	if k.started {
		return fmt.Errorf("sim: Run is not reentrant")
	}
	k.started = true
	defer func() { k.started = false }()
	for k.events.Len() > 0 {
		ev := heap.Pop(&k.events).(event)
		if ev.at < k.now {
			return fmt.Errorf("sim: time went backwards (%v < %v)", ev.at, k.now)
		}
		k.now = ev.at
		ev.proc.resume <- struct{}{}
		<-k.yielded
	}
	if len(k.parked) > 0 {
		var first string
		for p, why := range k.parked {
			first = fmt.Sprintf("%s (%s)", p.name, why)
			break
		}
		return fmt.Errorf("sim: deadlock — %d process(es) parked, e.g. %s", len(k.parked), first)
	}
	return nil
}

// yield returns control to the kernel and blocks until rescheduled.
func (p *Proc) yield() {
	p.k.yielded <- struct{}{}
	<-p.resume
}

// park blocks the process without a scheduled wake-up; something else must
// call k.schedule for it. reason is reported on deadlock.
func (p *Proc) park(reason string) {
	p.k.parked[p] = reason
	p.yield()
	delete(p.k.parked, p)
}

// Delay advances the process's virtual time by d (a computation, a disk
// service time, a network transfer). Negative d is treated as zero.
func (p *Proc) Delay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now+d, p)
	p.yield()
}

// Resource is a FIFO multi-server: at most Capacity holders at once; further
// Acquire calls queue in arrival order. It also integrates busy time so
// utilization can be reported.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	busy     int
	queue    []*Proc

	busyIntegral time.Duration // Σ busy·dt
	lastChange   time.Duration
}

// NewResource creates a resource with the given capacity (servers).
func (k *Kernel) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// account updates the busy-time integral before a state change.
func (r *Resource) account() {
	r.busyIntegral += time.Duration(r.busy) * (r.k.now - r.lastChange)
	r.lastChange = r.k.now
}

// Acquire takes one server slot, queueing FIFO if all are busy.
func (p *Proc) Acquire(r *Resource) {
	if r.busy < r.capacity {
		r.account()
		r.busy++
		return
	}
	r.queue = append(r.queue, p)
	p.park("acquire " + r.name)
	// woken by Release: the slot was handed to us with busy unchanged.
}

// Release frees one server slot, handing it to the longest-waiting process
// if any.
func (p *Proc) Release(r *Resource) {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		r.k.schedule(r.k.now, next) // slot transfers; busy stays the same
		return
	}
	r.account()
	r.busy--
	if r.busy < 0 {
		panic(fmt.Sprintf("sim: release of idle resource %s", r.name))
	}
}

// Use acquires r, delays for d, and releases — the common "service" pattern.
func (p *Proc) Use(r *Resource, d time.Duration) {
	p.Acquire(r)
	p.Delay(d)
	p.Release(r)
}

// BusyTime returns the integrated busy time Σ busy·dt up to the current
// virtual time; BusyTime / (elapsed · capacity) is the utilization.
func (r *Resource) BusyTime() time.Duration {
	r.account()
	return r.busyIntegral
}

// QueueLen returns the number of processes currently waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

// Latch is a countdown latch used to join forked processes: Add before
// forking, Done in each fork, Wait to block until the count reaches zero.
type Latch struct {
	k       *Kernel
	count   int
	waiters []*Proc
}

// NewLatch creates a latch with an initial count.
func (k *Kernel) NewLatch(count int) *Latch {
	if count < 0 {
		count = 0
	}
	return &Latch{k: k, count: count}
}

// Add increases the count by n.
func (l *Latch) Add(n int) { l.count += n }

// Done decrements the count; at zero all waiters are released.
func (l *Latch) Done() {
	l.count--
	if l.count < 0 {
		panic("sim: latch count went negative")
	}
	if l.count == 0 {
		for _, w := range l.waiters {
			l.k.schedule(l.k.now, w)
		}
		l.waiters = nil
	}
}

// Wait blocks the process until the latch count reaches zero. Returns
// immediately if it already is.
func (p *Proc) Wait(l *Latch) {
	if l.count == 0 {
		return
	}
	l.waiters = append(l.waiters, p)
	p.park("latch wait")
}
