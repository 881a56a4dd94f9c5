package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"multicluster/internal/conc"
	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/faultinject"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one tracked unit of work: a normalized spec heading through the
// queue, the pool, and the cache.
type Job struct {
	// ID is unique per service instance; Hash is content-addressed and
	// shared by every job with the same spec.
	ID   string
	Spec JobSpec
	Hash string

	client string
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    JobState
	err      error
	result   *Result
	cacheHit bool
	attempts int
	created  time.Time
	started  time.Time
	finished time.Time
}

// JobView is the serializable snapshot of a job for the HTTP API.
type JobView struct {
	ID       string   `json:"id"`
	Hash     string   `json:"hash"`
	State    JobState `json:"state"`
	Spec     JobSpec  `json:"spec"`
	CacheHit bool     `json:"cache_hit"`
	// Attempts is how many executions the job needed; > 1 means transient
	// failures were retried.
	Attempts int       `json:"attempts,omitempty"`
	Error    string    `json:"error,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Hash:     j.Hash,
		State:    j.state,
		Spec:     j.Spec,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Result:   j.result,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the result and error of a finished job.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Cancel cancels the job. A job still in the queue never runs; a job
// already executing finishes its simulation but the submitter stops
// waiting.
func (j *Job) Cancel() { j.cancel() }

func (j *Job) markRunning() {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobRunning
		j.started = time.Now()
	}
	j.attempts++
	j.mu.Unlock()
}

func (j *Job) finish(res *Result, hit bool, err error) (terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		return false
	}
	j.finished = time.Now()
	j.cacheHit = hit
	switch {
	case err == nil:
		j.state = JobDone
		j.result = res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCanceled
		j.err = err
	default:
		j.state = JobFailed
		j.err = err
	}
	close(j.done)
	return true
}

// RetryPolicy governs how transient failures are retried: exponential
// backoff from Base doubling per attempt, capped at Max, plus a
// deterministic jitter derived from the job hash so chaos runs replay
// exactly.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed; < 1 means 1
	// (no retries).
	MaxAttempts int
	// Base is the first backoff; 0 means 10ms.
	Base time.Duration
	// Max caps the backoff; 0 means 1s.
	Max time.Duration
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Base <= 0 {
		p.Base = 10 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	return p
}

// backoff returns the sleep before retry number attempt (0-based counting
// of completed attempts): exponential with ±50% deterministic jitter.
func (p RetryPolicy) backoff(hash string, attempt int) time.Duration {
	d := p.Base << uint(attempt)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", hash, attempt)
	// Jitter in [50%, 150%) of the exponential step.
	frac := 0.5 + float64(h.Sum64()>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// Remote is the cluster hook: when a Service has one, every computation
// consults it for ownership of the spec's content hash and forwards
// non-owned work to the owning node. internal/cluster's Node implements
// it; the interface lives here so sweep does not import the cluster.
type Remote interface {
	// Route returns the owner of hash and whether this node should
	// compute it locally (because it is the owner, or ownership is
	// undecidable and local is the safe default).
	Route(hash string) (node string, local bool)
	// RunRemote executes spec on the owning node. Any error makes the
	// service fall back to computing locally — availability over
	// placement.
	RunRemote(ctx context.Context, node string, spec JobSpec) (*Result, error)
	// Completed is called once for every result this node freshly
	// computed, so the cluster layer can replicate it or hand it back to
	// its owner.
	Completed(res *Result)
	// ReadRepair is called when a request for a non-owned hash was
	// served from the local replica cache, so the cluster layer can
	// asynchronously verify the owner (and the rest of the replica set)
	// still hold the result and refresh any copy that went missing.
	// Implementations must not block the serving path.
	ReadRepair(res *Result)
}

// Config configures a Service.
type Config struct {
	// Workers bounds the worker pool; < 1 means GOMAXPROCS.
	Workers int
	// JobTimeout is the default per-job deadline, overridable per job via
	// JobSpec.TimeoutMS; 0 means no deadline.
	JobTimeout time.Duration
	// Retry governs transient-failure retries; the zero value means no
	// retries.
	Retry RetryPolicy
	// MaxLive bounds admitted-but-unfinished jobs (queued + running).
	// Submissions beyond it are shed with ErrOverloaded; 0 means
	// unbounded.
	MaxLive int
	// MaxPerClient caps unfinished jobs per client id; 0 means unlimited.
	MaxPerClient int
	// JobRetention bounds how many finished jobs the registry keeps: once
	// more than JobRetention jobs have reached a terminal state, the
	// oldest-finished are evicted (their IDs return 404 from the API). A
	// long-running daemon would otherwise leak memory linearly with
	// traffic. 0 means DefaultJobRetention; negative means unlimited (the
	// pre-retention behaviour, for tools that own their job lifetime).
	JobRetention int
	// Metrics, when set, receives the service's observability stream: job
	// latency breakdowns, eviction/admission counters, cache/pool/journal
	// samplers, and the simulator-core probes. One Metrics per service.
	Metrics *Metrics
	// Inject is the fault-injection plan for chaos testing; nil means off.
	Inject *faultinject.Plan
	// Journal, when set, is written through on every computed result and
	// its recovered records seed the cache at construction.
	Journal *Journal
	// SweepJournal, when set, persists sweep lifecycles (grid spec +
	// completion cursor) so incomplete sweeps resume after a restart.
	SweepJournal *SweepJournal
	// SweepRetention bounds how many finished sweeps the registry keeps;
	// 0 means DefaultSweepRetention, negative means unlimited.
	SweepRetention int
	// NodeID, when set, prefixes job IDs ("n1-j42") so any cluster node
	// can route a lookup by id back to the node that minted it.
	NodeID string
	// Remote, when set, routes computations through the cluster: cells
	// owned by a peer are forwarded to it, and fresh local results are
	// offered back for replication. Nil means single-node.
	Remote Remote
	// exec overrides the execution kernel; tests use it to observe or
	// sabotage job execution.
	exec func(spec JobSpec) (*Result, error)
}

// Service is the sweep orchestrator: submitted jobs flow through the
// content-addressed cache (deduplicating identical specs) onto the bounded
// worker pool, and results are retained for every later request.
type Service struct {
	pool         *Pool
	cache        Cache
	exec         func(spec JobSpec) (*Result, error)
	inject       *faultinject.Plan
	journal      *Journal
	sweepJournal *SweepJournal
	sweeps       *sweepRegistry
	remote       Remote
	nodeID       string

	jobTimeout   time.Duration
	retry        RetryPolicy
	maxLive      int
	maxPerClient int
	retention    int
	metrics      *Metrics

	base       context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	clients  map[string]int
	live     int
	draining bool
	// finishedOrder queues finished job IDs in completion order for
	// retention eviction; orderStale counts evicted IDs still present in
	// order, compacted away once they outnumber the live ones.
	finishedOrder []string
	orderStale    int

	nextID    atomic.Int64
	submitted atomic.Int64
	shed      atomic.Int64
	retries   atomic.Int64
	evicted   atomic.Int64
}

// DefaultJobRetention is how many finished jobs the registry keeps when
// Config.JobRetention is zero.
const DefaultJobRetention = 1024

// NewService starts a service with its worker pool. When cfg.Journal is
// set, every result it recovered is seeded into the cache before the
// service accepts work.
func NewService(cfg Config) *Service {
	exec := cfg.exec
	if exec == nil {
		// The real kernel carries the metrics' core probes into every
		// simulation it actually runs (memoized runs never re-simulate).
		probes := cfg.Metrics.CoreProbes()
		exec = func(spec JobSpec) (*Result, error) { return runSpec(spec, probes) }
	}
	retention := cfg.JobRetention
	if retention == 0 {
		retention = DefaultJobRetention
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Service{
		pool:         NewPool(cfg.Workers),
		exec:         exec,
		inject:       cfg.Inject,
		journal:      cfg.Journal,
		sweepJournal: cfg.SweepJournal,
		remote:       cfg.Remote,
		nodeID:       cfg.NodeID,
		jobTimeout:   cfg.JobTimeout,
		retry:        cfg.Retry.normalized(),
		maxLive:      cfg.MaxLive,
		maxPerClient: cfg.MaxPerClient,
		retention:    retention,
		metrics:      cfg.Metrics,
		base:         base,
		baseCancel:   cancel,
		jobs:         make(map[string]*Job),
		clients:      make(map[string]int),
	}
	s.cache.inject = cfg.Inject
	s.cache.journal = cfg.Journal
	if cfg.Journal != nil {
		for _, r := range cfg.Journal.Recovered() {
			s.cache.Seed(r.Hash, r)
		}
	}
	s.sweeps = newSweepRegistry(s, cfg.SweepJournal, cfg.SweepRetention)
	cfg.Metrics.bindService(s)
	// Resume journaled sweeps only after metrics are bound, so recovered
	// cell completions are observed like any other traffic. Incomplete
	// sweeps re-run their grids; cells already journaled hit the cache
	// seeded above, so resumption costs lookups, not simulations.
	s.sweeps.recover()
	return s
}

// runSpec is the real execution kernel: compile and simulate through the
// process-wide experiment cache, with the service's core probes (if any)
// installed on runs that actually simulate.
func runSpec(spec JobSpec, probes *core.Probes) (*Result, error) {
	cfg, opts, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	opts.Probes = probes
	rr, err := experiment.CachedRun(spec.Benchmark, spec.Scheduler, cfg, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec:    spec,
		Stats:   rr.Stats.Snapshot(),
		Spilled: rr.Spilled,
		Demoted: rr.Demoted,
	}, nil
}

// ErrDraining is returned by Submit once graceful shutdown has begun.
var ErrDraining = errors.New("sweep: service is draining")

// ErrOverloaded is returned by Submit when the admission window (MaxLive)
// is full; the client should retry after backing off.
var ErrOverloaded = errors.New("sweep: overloaded, retry later")

// ErrClientBusy is returned by Submit when one client exceeds its
// in-flight cap while the service as a whole still has capacity.
var ErrClientBusy = errors.New("sweep: client in-flight limit reached, retry later")

// Submit registers an asynchronous job with no client attribution.
func (s *Service) Submit(spec JobSpec) (*Job, error) { return s.SubmitFor("", spec) }

// SubmitFor registers an asynchronous job on behalf of client and returns
// immediately. Identical specs — concurrent or repeated — share one
// underlying simulation through the cache. Admission control applies
// before the job exists: a full service sheds with ErrOverloaded, a
// client over its in-flight cap is refused with ErrClientBusy, and both
// are counted as shed.
func (s *Service) SubmitFor(client string, spec JobSpec) (*Job, error) {
	return s.SubmitCtx(context.Background(), client, spec)
}

// jobID mints the next job id, prefixed with the node id in cluster
// mode so the minting node is recoverable from the id alone.
func (s *Service) jobID() string {
	n := s.nextID.Add(1)
	if s.nodeID != "" {
		return fmt.Sprintf("%s-j%d", s.nodeID, n)
	}
	return fmt.Sprintf("j%d", n)
}

// SubmitCtx is SubmitFor with request metadata: the request id and
// client id attached to ctx ride along into the job's execution context
// (and across a cluster forward). ctx contributes only values — the
// job's lifetime is still governed by the service and its own timeout,
// not by ctx's cancellation, so a submitter disconnecting does not kill
// the job it was promised.
func (s *Service) SubmitCtx(ctx context.Context, client string, spec JobSpec) (*Job, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return nil, err
	}
	jctx, cancel := context.WithCancel(s.base)
	if timeout := norm.Timeout(s.jobTimeout); timeout > 0 {
		jctx, cancel = context.WithTimeout(s.base, timeout)
	}
	jctx = copyMeta(jctx, ctx)
	job := &Job{
		ID:      s.jobID(),
		Spec:    norm,
		Hash:    hash,
		client:  client,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   JobQueued,
		created: time.Now(),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	if s.maxLive > 0 && s.live >= s.maxLive {
		s.mu.Unlock()
		cancel()
		s.shed.Add(1)
		return nil, ErrOverloaded
	}
	if client != "" && s.maxPerClient > 0 && s.clients[client] >= s.maxPerClient {
		s.mu.Unlock()
		cancel()
		s.shed.Add(1)
		return nil, ErrClientBusy
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.live++
	if client != "" {
		s.clients[client]++
	}
	s.mu.Unlock()
	s.submitted.Add(1)

	go func() {
		defer cancel()
		type out struct {
			res *Result
			hit bool
			err error
		}
		ch := make(chan out, 1)
		go func() {
			res, hit, err := s.compute(jctx, norm, hash, job.markRunning, true)
			ch <- out{res, hit, err}
		}()
		select {
		case o := <-ch:
			s.finishJob(job, o.res, o.hit, o.err)
		case <-jctx.Done():
			// The job was cancelled (or timed out) while joined to someone
			// else's computation; release the submitter now. (If this job
			// owned the computation, the inner call observes the same ctx.)
			s.finishJob(job, nil, false, jctx.Err())
		}
	}()
	return job, nil
}

// finishJob records the terminal state, releases the job's admission
// slot exactly once, and applies the retention bound.
func (s *Service) finishJob(job *Job, res *Result, hit bool, err error) {
	if !job.finish(res, hit, err) {
		return
	}
	s.metrics.observeFinished(job)
	s.mu.Lock()
	s.live--
	if job.client != "" {
		if s.clients[job.client]--; s.clients[job.client] <= 0 {
			delete(s.clients, job.client)
		}
	}
	s.evictFinishedLocked(job)
	s.mu.Unlock()
}

// evictFinishedLocked enqueues the freshly finished job on the retention
// queue and evicts the oldest-finished jobs beyond the bound, so the
// registry holds at most live + retention jobs no matter how much
// traffic the daemon has served. Called with s.mu held.
func (s *Service) evictFinishedLocked(job *Job) {
	if s.retention < 0 {
		return // unlimited retention
	}
	s.finishedOrder = append(s.finishedOrder, job.ID)
	evicted := 0
	for len(s.finishedOrder) > s.retention {
		id := s.finishedOrder[0]
		s.finishedOrder = s.finishedOrder[1:]
		delete(s.jobs, id)
		s.orderStale++
		evicted++
	}
	if evicted == 0 {
		return
	}
	s.evicted.Add(int64(evicted))
	s.metrics.observeEvicted(evicted)
	// Compact the submission-order index once evicted IDs outnumber the
	// retained ones, so it stays proportional to the registry.
	if s.orderStale*2 > len(s.order) {
		kept := make([]string, 0, len(s.jobs))
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		s.order = kept
		s.orderStale = 0
	}
}

// Run executes one spec synchronously: through the cache, deduplicated
// with any concurrent identical request, on the worker pool, with the
// same deadline and retry behaviour as submitted jobs. hit reports
// whether the result came from the cache. In cluster mode the
// computation routes to the owning node.
func (s *Service) Run(ctx context.Context, spec JobSpec) (res *Result, hit bool, err error) {
	return s.run(ctx, spec, true)
}

// RunLocal is Run pinned to this node: the cluster's forwarded-run
// handler uses it, so a forwarded computation can never forward again
// (routing terminates in one hop even with a divergent partition map).
func (s *Service) RunLocal(ctx context.Context, spec JobSpec) (res *Result, hit bool, err error) {
	return s.run(ctx, spec, false)
}

func (s *Service) run(ctx context.Context, spec JobSpec, routed bool) (res *Result, hit bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return nil, false, err
	}
	if timeout := norm.Timeout(s.jobTimeout); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return s.compute(ctx, norm, hash, nil, routed)
}

// Cached returns the completed result for a content hash, if the cache
// holds one, without computing or routing anything.
func (s *Service) Cached(hash string) (*Result, bool) { return s.cache.Get(hash) }

// CachedHashes enumerates the content hash of every completed result
// in the cache, in no particular order — the range-scan seam cluster
// rebalancing and anti-entropy digests iterate over. The journal-backed
// entries recovered at startup are included, so a restarted node
// digests everything it ever committed.
func (s *Service) CachedHashes() []string { return s.cache.Hashes() }

// StoreResult installs a result computed elsewhere — a replication push
// or a replayed hint from a peer — into the cache and journal, after
// verifying the result's content hash matches its spec. Idempotent: a
// hash already cached is left untouched.
func (s *Service) StoreResult(res *Result) error {
	if res == nil || res.Hash == "" {
		return errors.New("sweep: result missing content hash")
	}
	norm, err := res.Spec.Normalize()
	if err != nil {
		return fmt.Errorf("sweep: stored result spec invalid: %w", err)
	}
	hash, err := norm.Hash()
	if err != nil {
		return err
	}
	if hash != res.Hash {
		return fmt.Errorf("sweep: stored result hash %.12s does not match its spec (%.12s)", res.Hash, hash)
	}
	s.cache.Store(res)
	return nil
}

// compute drives one spec to completion through the retry loop: each
// attempt goes through the cache (where cache- and journal-boundary
// faults can strike) onto the pool (where simulation-boundary faults can
// strike). Transient failures back off and retry; terminal failures —
// deterministic simulator errors, cancellation, deadline — return
// immediately.
//
// When routed and the service has a Remote, ownership is consulted
// first: a cell owned by a peer is served from the local replica cache
// if present, forwarded to its owner otherwise, and computed locally as
// the fallback when the forward fails. Fresh local computations are
// offered to the Remote for replication or handback.
func (s *Service) compute(ctx context.Context, spec JobSpec, hash string, onStart func(), routed bool) (*Result, bool, error) {
	if routed && s.remote != nil {
		if owner, local := s.remote.Route(hash); !local {
			if res, ok := s.cache.Get(hash); ok {
				// Replicated (or previously forwarded) copy — serve it
				// without a network hop, and let the cluster verify the
				// owner's copy in the background (read-repair).
				s.remote.ReadRepair(res)
				return res, true, nil
			}
			if onStart != nil {
				onStart()
				onStart = nil
			}
			res, err := s.forward(ctx, owner, spec, hash)
			if err == nil {
				if _, local := s.remote.Route(hash); local {
					// Ownership moved to us while the forward was in
					// flight (a rebalance): we are the owner now, so the
					// copy must be durable, not just a cached replica.
					s.cache.Store(res)
				} else {
					s.cache.Seed(hash, res)
				}
				return res, false, nil
			}
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			// Owner unreachable: compute the cell ourselves. Completed
			// below hands the result back to the owner's shard (directly
			// or through the hint log).
		}
	}
	var lastErr error
	for attempt := 0; attempt < s.retry.MaxAttempts; attempt++ {
		key := fmt.Sprintf("%s#%d", hash, attempt)
		res, hit, err := s.attempt(ctx, spec, hash, key, onStart)
		if err == nil {
			if !hit && s.remote != nil {
				s.remote.Completed(res)
			}
			return res, hit, nil
		}
		lastErr = err
		if !s.retryable(err) || attempt+1 == s.retry.MaxAttempts {
			return nil, hit, err
		}
		s.retries.Add(1)
		backoff := s.retry.backoff(hash, attempt)
		s.metrics.observeBackoff(backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	return nil, false, lastErr
}

// forward sends one computation to the owning node through the Remote,
// converting an escaped panic to a *PanicError like any other boundary.
// The "forward" fault-injection site strikes here, keyed by content
// hash, so chaos tests can sever the forwarding path deterministically.
func (s *Service) forward(ctx context.Context, node string, spec JobSpec, hash string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	if err := s.inject.Check("forward", hash); err != nil {
		return nil, err
	}
	return s.remote.RunRemote(ctx, node, spec)
}

// attempt is one pass through cache and pool. A panic escaping the cache
// boundary (injected chaos) is converted to a *PanicError here so it can
// be classified and retried instead of killing the submit goroutine.
func (s *Service) attempt(ctx context.Context, spec JobSpec, hash, key string, onStart func()) (res *Result, hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, hit = nil, false
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return s.cache.GetOrCompute(hash, key, func() (*Result, error) {
		return s.runOnPool(ctx, spec, hash, key, onStart)
	})
}

// retryable classifies an execution error: cancellation and deadlines are
// final, injected/transient faults (including a panic carrying one, and a
// shared computation that panicked under injection) retry, and everything
// else — a deterministic simulator or spec error — is terminal and never
// retried.
func (s *Service) retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, ErrPoolClosed):
		return false
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		if f, ok := pe.Value.(error); ok {
			return faultinject.IsTransient(f)
		}
		return false
	}
	if errors.Is(err, conc.ErrComputePanicked) {
		// A joined computation panicked in its owner; whether the panic
		// was injected is invisible from here, but retrying is safe under
		// chaos and cheap otherwise (the owner's retry usually wins the
		// cache first).
		return s.inject.Enabled()
	}
	return faultinject.IsTransient(err)
}

// runOnPool queues one computation and waits for it. The spec only
// executes if ctx is still live when a worker picks it up — cancellation
// while queued skips the simulation entirely. The task is queued under
// the requesting client's tenant key (from ctx), so the pool's
// fair-queueing scheduler interleaves tenants no matter how deep any one
// tenant's backlog runs.
func (s *Service) runOnPool(ctx context.Context, spec JobSpec, hash, key string, onStart func()) (*Result, error) {
	var res *Result
	ch := make(chan error, 1)
	submitErr := s.pool.SubmitAs(ClientIDFrom(ctx), func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if onStart != nil {
			onStart()
		}
		if err := s.inject.Check("sim", key); err != nil {
			return err
		}
		r, err := s.exec(spec)
		if err != nil {
			return err
		}
		r.Hash = hash
		res = r
		return nil
	}, func(err error) {
		ch <- err
	})
	if submitErr != nil {
		return nil, submitErr
	}
	select {
	case err := <-ch:
		if err != nil {
			return nil, err
		}
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Job returns a registered job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns snapshots of every retained job, in submission order.
// Jobs evicted by the retention bound no longer appear.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// DefaultJobPageLimit is the page size JobsPage uses when the caller
// does not specify one.
const DefaultJobPageLimit = 256

// JobsPage returns up to limit job snapshots in submission order,
// starting just past the job with id after ("" starts at the beginning).
// next is the cursor for the following page, empty on the last one. A
// cursor naming an evicted job yields an empty final page — the listing
// it belonged to has aged out, so there is nothing left to continue.
func (s *Service) JobsPage(after string, limit int) (views []JobView, next string) {
	if limit <= 0 {
		limit = DefaultJobPageLimit
	}
	s.mu.Lock()
	start := 0
	if after != "" {
		start = len(s.order)
		for i, id := range s.order {
			if id == after {
				start = i + 1
				break
			}
		}
	}
	jobs := make([]*Job, 0, limit)
	more := false
	for _, id := range s.order[start:] {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(jobs) == limit {
			more = true
			break
		}
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views = make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	if more {
		next = jobs[len(jobs)-1].ID
	}
	return views, next
}

// Ready reports whether the service can accept a new submission right
// now: not draining and not at its admission limit. The HTTP /readyz
// endpoint exposes it.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	return s.maxLive == 0 || s.live < s.maxLive
}

// Stats aggregates every counter the service exposes.
type Stats struct {
	Submitted int64 `json:"submitted"`
	// Shed counts submissions refused by admission control (full service
	// or per-client cap).
	Shed int64 `json:"shed"`
	// Retries counts transient-failure retries across all jobs.
	Retries int64 `json:"retries"`
	// Evicted counts finished jobs dropped from the registry by the
	// retention bound (their IDs return 404 from the API).
	Evicted int64              `json:"evicted"`
	States  map[JobState]int64 `json:"states"`
	// Live is the number of admitted, unfinished jobs.
	Live  int        `json:"live"`
	Ready bool       `json:"ready"`
	Pool  PoolStats  `json:"pool"`
	Cache CacheStats `json:"cache"`
	// Journal is present when a persistent journal is attached.
	Journal *JournalStats `json:"journal,omitempty"`
	// Sweeps aggregates the sweep-resource registry.
	Sweeps SweepStats `json:"sweeps"`
	// SweepJournal is present when a sweep journal is attached.
	SweepJournal *SweepJournalStats `json:"sweep_journal,omitempty"`
	// Faults counts injected faults by "site/kind" when chaos is on.
	Faults map[string]int64 `json:"faults,omitempty"`
	// Utilization is running workers over total workers, 0..1.
	Utilization float64 `json:"utilization"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Submitted: s.submitted.Load(),
		Shed:      s.shed.Load(),
		Retries:   s.retries.Load(),
		Evicted:   s.evicted.Load(),
		States:    make(map[JobState]int64),
		Ready:     s.Ready(),
		Pool:      s.pool.Stats(),
		Cache:     s.cache.Stats(),
	}
	if s.journal != nil {
		js := s.journal.Stats()
		st.Journal = &js
	}
	st.Sweeps = s.sweeps.stats()
	if s.sweepJournal != nil {
		sjs := s.sweepJournal.Stats()
		st.SweepJournal = &sjs
	}
	if s.inject.Enabled() {
		st.Faults = s.inject.Counts()
	}
	s.mu.Lock()
	st.Live = s.live
	for _, j := range s.jobs {
		st.States[j.State()]++
	}
	s.mu.Unlock()
	if st.Pool.Workers > 0 {
		st.Utilization = float64(st.Pool.Running) / float64(st.Pool.Workers)
	}
	return st
}

// Drain begins graceful shutdown: new submissions are rejected, queued and
// running jobs finish, and Drain returns when every registered job has
// reached a terminal state or ctx expires. The journal, if any, is closed
// once the jobs have settled.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Halt running sweeps without journaling a terminal state: their
	// queued cells exit promptly (dead contexts) and the next start
	// resumes them from the sweep journal. Draining a 10k-cell grid to
	// completion is not graceful shutdown.
	s.sweeps.shutdownAll()

	drained := make(chan struct{})
	go func() {
		// Wait for jobs before closing the pool: a freshly registered job
		// enqueues its pool task asynchronously, and closing too early
		// would fail it with ErrPoolClosed.
		for _, j := range jobs {
			<-j.Done()
		}
		s.pool.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		if s.journal != nil {
			s.journal.Close()
		}
		if s.sweepJournal != nil {
			s.sweepJournal.Close()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts down immediately: every job context is cancelled and the
// pool is drained of the (now trivially short) remaining tasks. The
// journal is NOT closed by Close — an abrupt shutdown is exactly the case
// the journal's crash recovery handles, and callers that own the journal
// close it themselves.
func (s *Service) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.sweeps.shutdownAll()
	s.baseCancel()
	s.pool.Drain()
}
