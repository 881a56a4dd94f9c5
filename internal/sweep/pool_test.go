package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolFIFOOrder(t *testing.T) {
	p := NewPool(1)
	defer p.Drain()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		if err := p.Submit(func() error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}, func(error) { wg.Done() }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v is not FIFO", order)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	defer p.Drain()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 24; i++ {
		wg.Add(1)
		p.Submit(func() error {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-gate
			cur.Add(-1)
			return nil
		}, func(error) { wg.Done() })
	}
	// Let the workers saturate, then release everyone.
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", got, workers)
	}
	st := p.Stats()
	if st.Completed != 24 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 24 completed, 0 failed", st)
	}
}

func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(2)
	defer p.Drain()

	errc := make(chan error, 1)
	p.Submit(func() error { panic("job gone wrong") }, func(err error) { errc <- err })
	err := <-errc
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking job reported %v, want *PanicError", err)
	}
	if pe.Value != "job gone wrong" || pe.Stack == "" {
		t.Fatalf("panic not captured: %+v", pe)
	}

	// The pool survives: both workers still process work.
	var wg sync.WaitGroup
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		p.Submit(func() error { ran.Add(1); return nil }, func(error) { wg.Done() })
	}
	wg.Wait()
	if ran.Load() != 8 {
		t.Fatalf("pool lost workers after a panic: only %d/8 jobs ran", ran.Load())
	}
	st := p.Stats()
	if st.Panics != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 panic, 1 failed", st)
	}
}

// gatedPool starts a 1-worker pool whose worker is parked on a gate
// task, so the test can build up tenant backlogs and then release the
// worker to observe pure scheduling order.
func gatedPool(t *testing.T) (p *Pool, release func()) {
	t.Helper()
	p = NewPool(1)
	t.Cleanup(p.Drain)
	started := make(chan struct{})
	gate := make(chan struct{})
	p.SubmitAs("zz-gate", func() error {
		close(started)
		<-gate
		return nil
	}, nil)
	<-started
	return p, func() { close(gate) }
}

// TestPoolWeightedFairness: with a single worker and the deterministic
// key tie-break, two backlogged tenants must be served in equal shares —
// strictly alternating while both have work — not in backlog order.
func TestPoolWeightedFairness(t *testing.T) {
	p, release := gatedPool(t)

	var mu sync.Mutex
	var order string
	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			p.SubmitAs(tenant, func() error {
				mu.Lock()
				order += tenant
				mu.Unlock()
				return nil
			}, func(error) { wg.Done() })
		}
	}
	// All of w's backlog lands before any of x's, so plain FIFO would run
	// wwwwwwwwxxxx.
	enqueue("w", 8)
	enqueue("x", 4)
	release()
	wg.Wait()

	// Both tenants enter at vtime 0 and advance by 1 per task, ties go to
	// the smaller key: w and x alternate until x drains, then w finishes.
	if want := "wxwxwxwxwwww"; order != want {
		t.Fatalf("fair schedule = %q, want %q", order, want)
	}
}

// TestPoolNoStarvation: a tenant with one queued task must be served
// almost immediately even when another tenant has a deep backlog ahead
// of it — the WFQ guarantee the sweep fleet relies on to keep
// interactive clients responsive under batch load.
func TestPoolNoStarvation(t *testing.T) {
	p, release := gatedPool(t)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		p.SubmitAs(tenant, func() error {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil
		}, func(error) { wg.Done() })
	}
	for i := 0; i < 50; i++ {
		submit("bulk")
	}
	submit("live") // enqueued dead last, behind 50 bulk tasks
	release()
	wg.Wait()

	pos := -1
	for i, tenant := range order {
		if tenant == "live" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 1 {
		t.Fatalf("interactive task ran at position %d behind a 50-task backlog, want within the first 2", pos)
	}
	if len(order) != 51 {
		t.Fatalf("ran %d tasks, want 51", len(order))
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1)
	p.Drain()
	if err := p.Submit(func() error { return nil }, nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrPoolClosed", err)
	}
}

func TestPoolDrainFinishesQueue(t *testing.T) {
	p := NewPool(1)
	var done atomic.Int64
	gate := make(chan struct{})
	p.Submit(func() error { <-gate; done.Add(1); return nil }, nil)
	for i := 0; i < 5; i++ {
		p.Submit(func() error { done.Add(1); return nil }, nil)
	}
	close(gate)
	p.Drain()
	if done.Load() != 6 {
		t.Fatalf("Drain returned with %d/6 tasks finished", done.Load())
	}
}
