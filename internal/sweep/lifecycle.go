package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SweepState is the lifecycle of a sweep resource.
type SweepState string

const (
	SweepRunning  SweepState = "running"
	SweepDone     SweepState = "done"
	SweepCanceled SweepState = "canceled"
)

// DefaultSweepRetention is how many finished sweeps the registry keeps
// when Config.SweepRetention is zero.
const DefaultSweepRetention = 64

// sweepProgressEvery is how many cell completions elapse between
// progress records in the sweep journal. The result journal is the
// authoritative resume substrate (every computed cell is durable the
// moment it is served), so the cursor record is coarse observability,
// not correctness.
const sweepProgressEvery = 32

// ErrSweepNotFound is returned for unknown or evicted sweep ids.
var ErrSweepNotFound = errors.New("sweep: unknown sweep")

// SweepResultRow is one cell of a sweep's result stream, delivered in
// grid order (row N is cell N of the expanded grid). It carries no
// cache_hit flag: the stream is defined by the grid, not by which server
// instance happened to compute which cell, so a resumed or re-read stream
// is byte-identical to the original.
type SweepResultRow struct {
	Index  int     `json:"index"`
	Total  int     `json:"total"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// SweepView is the serializable progress snapshot of a sweep resource.
type SweepView struct {
	ID    string     `json:"id"`
	State SweepState `json:"state"`
	// Total is the expanded grid size; Done counts completed cells of any
	// outcome, and is also the highest cursor from which /results can
	// serve without waiting.
	Total int `json:"total"`
	Done  int `json:"done"`
	// Per-outcome counts: OK cells carry a result, Failed cells an error;
	// CacheHits counts the OK cells served without simulating.
	OK        int       `json:"ok"`
	Failed    int       `json:"failed"`
	CacheHits int       `json:"cache_hits"`
	Resumed   bool      `json:"resumed,omitempty"`
	Client    string    `json:"client,omitempty"`
	Grid      Grid      `json:"grid"`
	Created   time.Time `json:"created"`
	Finished  time.Time `json:"finished,omitzero"`
}

// SweepHandle is one first-class sweep resource: a grid expanded into
// cells, executing asynchronously, with progress queryable and results
// readable as a resumable, in-order stream.
type SweepHandle struct {
	ID      string
	grid    Grid
	specs   []JobSpec
	client  string
	created time.Time
	resumed bool

	cancel context.CancelFunc

	mu       sync.Mutex
	state    SweepState
	rows     []*SweepResultRow // indexed by cell, nil until complete
	done     int
	ok       int
	failed   int
	hits     int
	finished time.Time
	halted   bool          // service shutdown: stop without a terminal state
	notify   chan struct{} // closed and replaced on every change (broadcast)
}

// View snapshots the sweep.
func (h *SweepHandle) View() SweepView {
	h.mu.Lock()
	defer h.mu.Unlock()
	return SweepView{
		ID:        h.ID,
		State:     h.state,
		Total:     len(h.specs),
		Done:      h.done,
		OK:        h.ok,
		Failed:    h.failed,
		CacheHits: h.hits,
		Resumed:   h.resumed,
		Client:    h.client,
		Grid:      h.grid,
		Created:   h.created,
		Finished:  h.finished,
	}
}

// State returns the sweep's current state.
func (h *SweepHandle) State() SweepState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Total is the expanded grid size.
func (h *SweepHandle) Total() int { return len(h.specs) }

// Row returns cell i's row if that cell has completed.
func (h *SweepHandle) Row(i int) (*SweepResultRow, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.rows) || h.rows[i] == nil {
		return nil, false
	}
	return h.rows[i], true
}

// terminal reports whether no further rows will arrive: the sweep
// reached a terminal state, or the service is shutting down (in which
// case the sweep resumes on the next start).
func (h *SweepHandle) terminal() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state != SweepRunning || h.halted
}

// waitCh returns a channel closed at the next row completion or state
// change. Take it *before* re-checking Row/terminal so no wakeup is
// missed.
func (h *SweepHandle) waitCh() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.notify
}

// broadcastLocked wakes every waiter. Called with h.mu held.
func (h *SweepHandle) broadcastLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

// complete records cell i's outcome. Rows arriving after cancellation
// (in-flight cells unwinding with context errors) are dropped so a
// canceled sweep's stream is a clean prefix, not a tail of noise.
// It returns the new completion count, or -1 if the row was dropped.
func (h *SweepHandle) complete(i int, row *SweepResultRow) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != SweepRunning || h.halted || h.rows[i] != nil {
		return -1
	}
	h.rows[i] = row
	h.done++
	switch {
	case row.Error != "":
		h.failed++
	default:
		h.ok++
	}
	h.broadcastLocked()
	return h.done
}

// sweepRegistry owns every sweep resource of a service: creation,
// lookup, cancellation, retention of finished sweeps, journaling, and
// recovery-time resumption.
type sweepRegistry struct {
	svc       *Service
	journal   *SweepJournal
	retention int

	mu            sync.Mutex
	sweeps        map[string]*SweepHandle
	order         []string
	finishedOrder []string
	draining      bool
	nextID        int64

	created int64
	resumed int64
	evicted int64
	states  map[SweepState]int64 // terminal outcomes
}

func newSweepRegistry(svc *Service, journal *SweepJournal, retention int) *sweepRegistry {
	if retention == 0 {
		retention = DefaultSweepRetention
	}
	return &sweepRegistry{
		svc:       svc,
		journal:   journal,
		retention: retention,
		sweeps:    make(map[string]*SweepHandle),
		states:    make(map[SweepState]int64),
	}
}

// sweepID mints the next sweep id, node-prefixed in cluster mode like
// job ids ("n1-s3").
func (r *sweepRegistry) sweepID() string {
	r.nextID++
	if r.svc.nodeID != "" {
		return fmt.Sprintf("%s-s%d", r.svc.nodeID, r.nextID)
	}
	return fmt.Sprintf("s%d", r.nextID)
}

// sweepSeq extracts the numeric suffix of a sweep id ("n1-s42" → 42).
func sweepSeq(id string) (int64, bool) {
	i := strings.LastIndex(id, "s")
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// CreateSweep registers a new sweep resource for client and starts its
// cells executing; it returns as soon as the sweep exists. Progress is
// read with Sweep(id).View(), results with the handle's Row/waitCh
// stream seam (the HTTP layer's GET /v1/sweeps/{id}/results).
func (s *Service) CreateSweep(ctx context.Context, client string, grid Grid) (*SweepHandle, error) {
	return s.sweeps.create(ctx, client, grid)
}

// Sweep returns a registered sweep by id.
func (s *Service) SweepByID(id string) (*SweepHandle, bool) { return s.sweeps.get(id) }

// Sweeps returns snapshots of every retained sweep, in creation order.
func (s *Service) Sweeps() []SweepView { return s.sweeps.list() }

// CancelSweep cancels a sweep: remaining cells stop (queued ones never
// run), the state becomes canceled durably, and a restart will not
// resume it.
func (s *Service) CancelSweep(id string) (*SweepHandle, bool) { return s.sweeps.cancelSweep(id) }

func (r *sweepRegistry) create(ctx context.Context, client string, grid Grid) (*SweepHandle, error) {
	specs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, ErrDraining
	}
	id := r.sweepID()
	h := r.registerLocked(id, client, grid, specs, time.Now(), false)
	r.mu.Unlock()

	if r.journal != nil {
		if err := r.journal.Created(id, client, grid, h.created); err != nil {
			// Durability degraded: the sweep still runs, it just won't
			// resume across a restart. Counted by the journal itself.
			_ = err
		}
	}
	r.launch(h)
	return h, nil
}

// registerLocked builds and indexes a handle. Called with r.mu held.
func (r *sweepRegistry) registerLocked(id, client string, grid Grid, specs []JobSpec, created time.Time, resumed bool) *SweepHandle {
	h := &SweepHandle{
		ID:      id,
		grid:    grid,
		specs:   specs,
		client:  client,
		created: created,
		resumed: resumed,
		state:   SweepRunning,
		rows:    make([]*SweepResultRow, len(specs)),
		notify:  make(chan struct{}),
	}
	r.sweeps[id] = h
	r.order = append(r.order, id)
	r.created++
	if resumed {
		r.resumed++
	}
	return h
}

// launch starts the sweep's cells. Cells run through the service's
// normal compute path (cache, single-flight, retries, cluster routing)
// on the worker pool, attributed to the sweep's owning client so the
// pool's fair queueing keeps one tenant's grid from starving
// everyone else. Per-sweep cell fan-out is bounded to keep goroutine
// count proportional to the pool, not the grid.
func (r *sweepRegistry) launch(h *SweepHandle) {
	ctx, cancel := context.WithCancel(r.svc.base)
	if h.client != "" {
		ctx = WithClientID(ctx, h.client)
	}
	h.mu.Lock()
	h.cancel = cancel
	h.mu.Unlock()

	go func() {
		defer cancel()
		width := 2 * r.svc.pool.Workers()
		if width > len(h.specs) {
			width = len(h.specs)
		}
		sem := make(chan struct{}, width)
		var wg sync.WaitGroup
	cells:
		for i, spec := range h.specs {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				break cells
			}
			wg.Add(1)
			go func(i int, spec JobSpec) {
				defer wg.Done()
				defer func() { <-sem }()
				res, hit, err := r.svc.Run(ctx, spec)
				row := &SweepResultRow{Index: i, Total: len(h.specs), Result: res}
				if err != nil {
					row.Error = err.Error()
					row.Result = nil
				}
				r.cellDone(h, i, row, hit)
			}(i, spec)
		}
		wg.Wait()
		r.finish(h)
	}()
}

// cellDone folds one finished cell into the sweep and journals the
// completion cursor periodically.
func (r *sweepRegistry) cellDone(h *SweepHandle, i int, row *SweepResultRow, hit bool) {
	done := h.complete(i, row)
	if done < 0 {
		return
	}
	if hit && row.Error == "" {
		h.mu.Lock()
		h.hits++
		h.mu.Unlock()
	}
	if r.journal != nil && done%sweepProgressEvery == 0 {
		r.journal.Progress(h.ID, done)
	}
}

// finish moves a sweep that ran out of cells to its terminal state. A
// halted sweep (service shutdown) keeps state running and writes no
// terminal record — that is exactly what makes the next start resume it.
func (r *sweepRegistry) finish(h *SweepHandle) {
	h.mu.Lock()
	if h.state != SweepRunning || h.halted {
		h.mu.Unlock()
		return
	}
	h.state = SweepDone
	h.finished = time.Now()
	h.broadcastLocked()
	h.mu.Unlock()

	if r.journal != nil {
		r.journal.Finished(h.ID, SweepDone)
	}
	r.retire(h, SweepDone)
}

func (r *sweepRegistry) get(id string) (*SweepHandle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.sweeps[id]
	return h, ok
}

func (r *sweepRegistry) list() []SweepView {
	r.mu.Lock()
	handles := make([]*SweepHandle, 0, len(r.sweeps))
	for _, id := range r.order {
		if h, ok := r.sweeps[id]; ok {
			handles = append(handles, h)
		}
	}
	r.mu.Unlock()
	views := make([]SweepView, len(handles))
	for i, h := range handles {
		views[i] = h.View()
	}
	return views
}

func (r *sweepRegistry) cancelSweep(id string) (*SweepHandle, bool) {
	r.mu.Lock()
	h, ok := r.sweeps[id]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	h.mu.Lock()
	already := h.state != SweepRunning
	if !already {
		h.state = SweepCanceled
		h.finished = time.Now()
		h.broadcastLocked()
	}
	cancel := h.cancel
	h.mu.Unlock()
	if already {
		return h, true
	}
	if cancel != nil {
		cancel()
	}
	if r.journal != nil {
		r.journal.Finished(h.ID, SweepCanceled)
	}
	r.retire(h, SweepCanceled)
	return h, true
}

// retire applies the retention bound to a freshly terminal sweep.
func (r *sweepRegistry) retire(h *SweepHandle, state SweepState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[state]++
	if r.retention < 0 {
		return
	}
	r.finishedOrder = append(r.finishedOrder, h.ID)
	for len(r.finishedOrder) > r.retention {
		id := r.finishedOrder[0]
		r.finishedOrder = r.finishedOrder[1:]
		delete(r.sweeps, id)
		r.evicted++
	}
	if len(r.finishedOrder)*2 < len(r.order) {
		kept := make([]string, 0, len(r.sweeps))
		for _, id := range r.order {
			if _, ok := r.sweeps[id]; ok {
				kept = append(kept, id)
			}
		}
		r.order = kept
	}
}

// recover re-materializes journaled sweeps: incomplete ones resume
// executing (already-journaled cells complete instantly from the seeded
// result cache), finished ones re-run the same way so their result
// streams are servable again — at cache speed, with zero recomputation.
func (r *sweepRegistry) recover() {
	if r.journal == nil {
		return
	}
	for _, rs := range r.journal.Recovered() {
		specs, err := rs.Grid.Expand()
		if err != nil {
			// A grid that no longer expands (renamed benchmark across an
			// upgrade) cannot resume; drop it rather than wedge recovery.
			continue
		}
		r.mu.Lock()
		if n, ok := sweepSeq(rs.ID); ok && n > r.nextID {
			r.nextID = n
		}
		h := r.registerLocked(rs.ID, rs.Client, rs.Grid, specs, rs.Created, true)
		r.mu.Unlock()
		r.launch(h)
	}
}

// shutdownAll halts every running sweep without recording a terminal
// state: queued cells stop promptly (their contexts die), and the next
// start resumes each sweep from the journal. New sweep creation is
// refused from here on.
func (r *sweepRegistry) shutdownAll() {
	r.mu.Lock()
	r.draining = true
	handles := make([]*SweepHandle, 0, len(r.sweeps))
	for _, h := range r.sweeps {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	for _, h := range handles {
		h.mu.Lock()
		if h.state == SweepRunning {
			h.halted = true
			h.broadcastLocked()
		}
		cancel := h.cancel
		h.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// SweepStats aggregates the registry counters.
type SweepStats struct {
	// Created counts sweeps registered this process (resumed included).
	Created int64 `json:"created"`
	// Resumed counts sweeps re-materialized from the journal at startup.
	Resumed int64 `json:"resumed"`
	// Active is the number of sweeps currently running.
	Active int `json:"active"`
	// Evicted counts finished sweeps dropped by the retention bound.
	Evicted int64                `json:"evicted"`
	States  map[SweepState]int64 `json:"states"`
}

func (r *sweepRegistry) stats() SweepStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := SweepStats{
		Created: r.created,
		Resumed: r.resumed,
		Evicted: r.evicted,
		States:  make(map[SweepState]int64, len(r.states)),
	}
	for k, v := range r.states {
		st.States[k] = v
	}
	st.Active = len(r.sweeps) - len(r.finishedOrder)
	return st
}

func (r *sweepRegistry) activeCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sweeps) - len(r.finishedOrder)
}
