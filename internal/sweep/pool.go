package sweep

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by Submit after Close or Drain.
var ErrPoolClosed = errors.New("sweep: pool closed")

// PanicError wraps a panic recovered from a job so one bad job surfaces as
// that job's failure instead of killing the daemon.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("sweep: job panicked: %v", e.Value) }

// Pool is a bounded worker pool with per-tenant fair queueing. Work is
// executed by a fixed set of worker goroutines; within one tenant tasks
// run in submission order (FIFO), and across tenants the scheduler is a
// virtual-time fair queue: each tenant's queue carries a virtual time
// advanced by 1 per dequeued task, and workers always pick the
// backlogged tenant with the smallest virtual time. A tenant with 10k
// queued tasks therefore cannot starve a tenant submitting one task at a
// time — backlogged tenants get equal shares, whatever their backlog
// size.
//
// Submit (no tenant) enqueues under the empty tenant key, which preserves
// the historical plain-FIFO behaviour when nobody else is queueing. A
// panicking task is isolated (recovered, counted, and reported to its own
// completion callback) and never takes a worker down.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string]*tenantQueue
	ready  tenantHeap // backlogged tenants, min-ordered by virtual time
	vnow   int64      // virtual time of the last dequeue
	closed bool
	wg     sync.WaitGroup

	workers   int
	queued    atomic.Int64 // tasks waiting across all tenant queues
	running   atomic.Int64 // tasks currently executing
	completed atomic.Int64 // tasks finished, success or failure
	failed    atomic.Int64 // tasks that returned an error (incl. panics)
	panics    atomic.Int64 // tasks that panicked
}

// poolTask is one queued unit of work and its completion callback.
type poolTask struct {
	fn   func() error
	done func(error) // may be nil
}

// tenantQueue is one tenant's FIFO backlog plus its fair-queueing
// accounting.
type tenantQueue struct {
	key   string
	tasks []poolTask
	vtime int64 // virtual start time of the task at the head
	index int   // position in the ready heap, -1 when idle
}

// tenantHeap orders backlogged tenants by virtual time (ties broken by
// key so scheduling is deterministic under equal load).
type tenantHeap []*tenantQueue

func (h tenantHeap) Len() int { return len(h) }
func (h tenantHeap) Less(i, j int) bool {
	if h[i].vtime != h[j].vtime {
		return h[i].vtime < h[j].vtime
	}
	return h[i].key < h[j].key
}
func (h tenantHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *tenantHeap) Push(x any) {
	q := x.(*tenantQueue)
	q.index = len(*h)
	*h = append(*h, q)
}
func (h *tenantHeap) Pop() any {
	old := *h
	q := old[len(old)-1]
	old[len(old)-1] = nil
	q.index = -1
	*h = old[:len(old)-1]
	return q
}

// PoolStats is a snapshot of the pool counters.
type PoolStats struct {
	Workers   int   `json:"workers"`
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Panics    int64 `json:"panics"`
	// Tenants is the number of tenants with queued work right now.
	Tenants int `json:"tenants"`
}

// NewPool starts a pool with n workers; n < 1 means GOMAXPROCS.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: n, queues: make(map[string]*tenantQueue)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Submit appends fn to the anonymous tenant's queue. fn runs on a worker
// goroutine; its error (or wrapped panic) is passed to done, which may be
// nil. Submit never blocks on queue capacity.
func (p *Pool) Submit(fn func() error, done func(error)) error {
	return p.SubmitAs("", fn, done)
}

// SubmitAs appends fn to tenant's queue. Tasks of one tenant run FIFO;
// across tenants the pool shares workers equally regardless of backlog
// depth.
func (p *Pool) SubmitAs(tenant string, fn func() error, done func(error)) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	q := p.queues[tenant]
	if q == nil {
		q = &tenantQueue{key: tenant, index: -1}
		p.queues[tenant] = q
	}
	q.tasks = append(q.tasks, poolTask{fn: fn, done: done})
	if q.index < 0 {
		// A tenant re-entering the schedule starts at the current virtual
		// time: it gets its fair share from now on, but cannot bank credit
		// from its idle period to burst ahead of everyone else.
		if q.vtime < p.vnow {
			q.vtime = p.vnow
		}
		heap.Push(&p.ready, q)
	}
	p.queued.Add(1)
	p.cond.Signal()
	p.mu.Unlock()
	return nil
}

// runIsolated executes fn, converting a panic into a *PanicError.
func (p *Pool) runIsolated(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// next pops the head task of the backlogged tenant with the smallest
// virtual time and advances the clocks. Called with p.mu held; returns
// false when nothing is queued.
func (p *Pool) next() (poolTask, bool) {
	if len(p.ready) == 0 {
		return poolTask{}, false
	}
	q := p.ready[0]
	task := q.tasks[0]
	q.tasks[0] = poolTask{}
	q.tasks = q.tasks[1:]
	p.vnow = q.vtime
	q.vtime++
	if len(q.tasks) == 0 {
		heap.Pop(&p.ready)
		// Idle tenants are forgotten entirely so the map stays proportional
		// to concurrent load, not to every client id ever seen; re-arrival
		// restarts at the then-current virtual time, which is exactly what
		// the re-entry clamp above would have produced anyway.
		delete(p.queues, q.key)
	} else {
		heap.Fix(&p.ready, 0)
	}
	return task, true
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.ready) == 0 && !p.closed {
			p.cond.Wait()
		}
		task, ok := p.next()
		p.mu.Unlock()
		if !ok {
			// closed and drained
			return
		}

		p.queued.Add(-1)
		p.running.Add(1)
		err := p.runIsolated(task.fn)
		p.running.Add(-1)
		p.completed.Add(1)
		if err != nil {
			p.failed.Add(1)
		}
		// The counters already include this task when its callback runs,
		// so a caller woken by done reads consistent Stats.
		if task.done != nil {
			task.done(err)
		}
	}
}

// Close stops accepting new work. Workers finish the queues and exit.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Drain closes the pool and blocks until every queued and running task has
// finished — the graceful-shutdown path.
func (p *Pool) Drain() {
	p.Close()
	p.wg.Wait()
}

// Stats snapshots the counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	tenants := len(p.ready)
	p.mu.Unlock()
	return PoolStats{
		Workers:   p.workers,
		Queued:    p.queued.Load(),
		Running:   p.running.Load(),
		Completed: p.completed.Load(),
		Failed:    p.failed.Load(),
		Panics:    p.panics.Load(),
		Tenants:   tenants,
	}
}
