package ridgewalker

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ridgewalker/internal/admit"
	"ridgewalker/internal/exec"
	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/sampling"
	"ridgewalker/internal/walk"
)

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Backend names the execution engine serving requests (see Backends);
	// default "auto" — cpu-pipelined at Cohort (or the default width),
	// with a per-class circuit breaker that can demote a faulting class to
	// cpu (see PlanStatus). Name a concrete backend ("cpu",
	// "cpu-pipelined", ...) to pin the engine by hand.
	Backend string
	// Platform selects the accelerator memory system for simulator-backed
	// backends; ignored by the cpu backend.
	Platform Platform
	// Workers sizes the cpu backends' worker pools — each worker owns a
	// reused path buffer and RNG stream, so the serving hot path allocates
	// nothing per step. It also sizes the dispatcher pool. 0 means
	// runtime.GOMAXPROCS(0) dispatchers, with each session at its
	// backend's default pool (cpu-sharded's is capped at 32 shard
	// workers).
	Workers int
	// Cohort sets the cohort backends' in-flight walker count per worker
	// (the width of the batched Row/Sample/Column/Move stages). 0 means
	// the backend default; other backends ignore it.
	Cohort int
	// MemoryBudgetBytes, when nonzero, serves the CPU backends through
	// tiered memory: hub rows uncompressed in a budget-bounded hot arena,
	// the cold tail delta-varint compressed, with the sampler store split
	// the same way for alias workloads (see exec.Config). Trajectories
	// are byte-identical at any budget. 0 keeps the flat stores.
	MemoryBudgetBytes int64
	// MaxBatch is the flush threshold for request coalescing: a pending
	// group is dispatched as soon as its accumulated queries reach this
	// size instead of waiting for its configuration's running group to
	// finish. It bounds how much co-batched work a request can pick up,
	// not the size of a backend dispatch — a single request larger than
	// MaxBatch is dispatched whole. Default 4096.
	MaxBatch int
	// MaxSessions caps the cached backend sessions (one per distinct walk
	// configuration, each holding samplers and worker buffers). The least
	// recently used idle session is evicted and closed when the cap is
	// exceeded. Default 16.
	MaxSessions int
	// MaxInFlight bounds admitted-but-unfinished queries across the
	// service; excess load is rejected immediately with ErrOverloaded
	// instead of queueing without bound. 0 disables the budget (admit
	// everything — quotas and admission metrics still apply),
	// AutoInFlight (-1) derives it from the EWMA-observed service rate
	// via the paper's Theorem VI.1 feedback-depth math, and a positive
	// value pins it by hand.
	MaxInFlight int
	// InteractiveWeight and BulkWeight set the lane draining ratio (and
	// each lane's share of the in-flight budget). Both zero means the
	// default 4:1; when set, each must be >= 1 so every lane stays
	// starvation-free.
	InteractiveWeight int
	BulkWeight        int
	// TenantQuota is the token-bucket allowance applied to tenants
	// without an explicit TenantQuotas entry. The zero value is
	// unlimited.
	TenantQuota TenantQuota
	// TenantQuotas overrides TenantQuota per WalkConfig.Tenant name.
	// Submissions beyond a tenant's bucket are rejected with
	// ErrQuotaExceeded without affecting other tenants.
	TenantQuotas map[string]TenantQuota
	// DisableAsync and DisableDynamicSched are the "ridgewalker" backend's
	// Fig. 11 ablation switches; other backends ignore them.
	DisableAsync        bool
	DisableDynamicSched bool
	// BreakerThreshold is how many consecutive engine faults on one query
	// class open its circuit breaker — under the "auto" backend the class
	// is demoted to the known-good cpu engine until a half-open re-probe
	// succeeds. 0 means the default (3); negative disables the breaker
	// (faults are still counted and contained).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before allowing
	// one half-open restore probe. 0 means the default (5s).
	BreakerCooldown time.Duration
	// QuarantineThreshold is how many engine faults a single query (same
	// configuration, ID, and start vertex) may cause before later
	// submissions carrying it are rejected with ErrQuarantined — a
	// deterministic poison query cannot take the same engine down
	// forever. 0 means the default (3); negative disables quarantine.
	QuarantineThreshold int
	// WatchdogInterval is the no-progress scan period for dispatched
	// batch groups: a heartbeat-capable engine that reports no forward
	// progress for two consecutive scans is canceled and its queries shed
	// with watchdog accounting (see FaultStatus). 0 means the default
	// (2s); negative disables the watchdog.
	WatchdogInterval time.Duration
}

// Counter is a served-work tally (see Service.Metrics).
type Counter struct {
	// Requests counts Submit/Stream calls.
	Requests int64
	// Queries counts walk queries served.
	Queries int64
	// Steps counts GRW hops taken.
	Steps int64
	// Batches counts backend dispatches (several requests can share one).
	Batches int64
}

func (c *Counter) add(d Counter) {
	c.Requests += d.Requests
	c.Queries += d.Queries
	c.Steps += d.Steps
	c.Batches += d.Batches
}

// ServiceMetrics is a point-in-time snapshot of served work, keyed by
// backend name, by GRW algorithm, and by graph epoch (every mutation
// batch and compaction advances the epoch; epoch 0 is the pristine
// graph, so an immutable service accumulates everything under key 0).
type ServiceMetrics struct {
	PerBackend   map[string]Counter
	PerAlgorithm map[string]Counter
	PerEpoch     map[uint64]Counter
	// PerLane and PerTenant tally admission outcomes (admitted / shed /
	// expired queries) by priority lane and by tenant (the empty tenant
	// reports as "default").
	PerLane   map[string]AdmissionCounter
	PerTenant map[string]AdmissionCounter
}

// Service is a long-lived walk-serving frontend over one graph and one
// execution backend. Concurrent Submit calls with the same walk
// configuration are coalesced into shared backend batches, sessions are
// cached per configuration so samplers and worker state are reused across
// requests, and per-backend / per-algorithm served-query metrics are
// tracked.
//
// Coalescing is work-conserving, per coalescing key: a request whose
// configuration has a free slot is dispatched at once, and requests
// arriving while every slot runs gather into one pending group that is
// dispatched the moment a running group finishes (or when it reaches
// MaxBatch). A key has one slot when its session serializes its runs —
// a second group would only wait on the session's lock, where it could
// gather nothing more — and one per dispatcher worker when the session
// runs batches side by side (cpu-sharded). Nothing waits on a clock:
// batching only while the key's engine is busy costs a request at most
// one run of its own class.
//
// Results are deterministic per request: each query's walk depends only on
// the configured seed, the query ID, and the start vertex — never on how
// requests were batched together — so a Submit returns byte-identical paths
// to Walk for the same configuration.
type Service struct {
	g   *Graph
	vg  *graph.Versioned
	cfg ServiceConfig
	// sessionWorkers is the Workers sessions open with: ServiceConfig.
	// Workers as given, 0 when it was left unset. cfg.Workers sizes the
	// dispatcher pool; an unset value must reach the engine as 0 so it
	// takes its own default (cpu-sharded's stays within
	// shard.MaxMeshWorkers on wide hosts).
	sessionWorkers int

	// planner is non-nil when Backend is "auto": it caches one plan per
	// query class and carries the breaker's demotions. Guarded by s.mu
	// (the pointer is swapped when CompactGraph replaces the base graph);
	// the planner itself is internally synchronized.
	planner *plan.Planner
	// pins borrows each planned class's sampler store on the serving base
	// for the planner's lifetime. Sessions come and go with plan
	// revisions, epochs and LRU eviction, and an epoch switch derives its
	// dirty alias rows from the base store; without a pin a moment with no
	// live session evicts the store and the next one rebuilds it — an
	// O(E) alias build and its garbage. Guarded by s.mu; released with the
	// planner (CompactGraph) and at Close.
	pins map[plan.Class]*sampling.SamplerRef

	// admit is the front-door overload gate: every Submit/Stream passes
	// its lane, tenant, query count, and deadline headroom through
	// Admit before any work is queued, and completed dispatches feed
	// their service time back via Observe so the auto budget tracks
	// what the engine demonstrably sustains.
	admit *admit.Controller

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	seq      int64 // LRU clock for session eviction
	pending  map[string]*batchGroup
	// running counts each key's dispatched-but-unfinished groups: a
	// Submit dispatches at once while its key has a free slot (keySlots),
	// and the worker that finishes a key's group dispatches its pending
	// one.
	running  map[string]int
	closed   bool
	inflight sync.WaitGroup

	// The flush queue feeds detached batch groups to the fixed dispatcher
	// pool. Groups used to get one spawned goroutine each, which a flush
	// burst (many distinct configurations dispatching at once) turned
	// into unbounded goroutine growth; now group execution is bounded at
	// Workers pool goroutines and enqueueing never blocks (a
	// mutex-guarded FIFO, so no hand-off goroutines pile up behind a full
	// channel either). The queues are unbounded, but admission bounds
	// what enters them: a group enqueues at most once, callers that stop
	// waiting (context cancellation) return while their group stays
	// queued until a worker drains it, and the admission budget caps the
	// total queries those queued groups can hold. One FIFO per priority
	// lane; workers pick the next lane by weighted round-robin, so
	// interactive groups overtake queued bulk without starving it.
	flushMu     sync.Mutex
	flushCond   *sync.Cond
	flushQs     [admit.NumLanes]flushHeap
	flushWRR    *admit.WRR
	flushSeq    int64
	flushStop   bool
	flushPaused bool // test hook: hold dispatch so EDF ordering can be observed
	flushWG     sync.WaitGroup

	// breaker trips a query class to the known-good cpu engine after
	// BreakerThreshold consecutive engine faults (see noteFault /
	// resolvePlan). nil when BreakerThreshold is negative.
	breaker *fault.Breaker

	// Quarantine tracks per-query engine-fault counts: a query that
	// deterministically crashes the engine QuarantineThreshold times is
	// rejected at the front door instead of burning another session.
	// Keyed by a hash of (walk configuration identity, query ID, start);
	// bounded at quarantineTableCap entries.
	qmu     sync.Mutex
	qcounts map[uint64]int

	// Watchdog state: every dispatched group on a heartbeat-capable
	// engine registers here; the scanner cancels groups whose heartbeat
	// stops advancing (see watchdogScan).
	watchMu     sync.Mutex
	watched     map[*batchGroup]*watchEntry
	watchEvents []WatchdogEvent // bounded ring, newest last
	watchStop   chan struct{}
	watchWG     sync.WaitGroup

	metricsMu sync.Mutex
	metrics   ServiceMetrics
}

// quarantineTableCap bounds the quarantine fault-count table. Past the
// cap new faulting queries are no longer tracked (existing entries keep
// counting) — an adversarial query stream cannot grow the table without
// bound.
const quarantineTableCap = 4096

// watchdogEventCap bounds the retained watchdog diagnostic ring.
const watchdogEventCap = 32

// flushJob is one detached batch group awaiting a dispatcher worker.
type flushJob struct {
	key string
	grp *batchGroup
	// deadline is the group's earliest member deadline (EDF ordering
	// within the lane); hasDL false means no member carried one.
	deadline time.Time
	hasDL    bool
	// seq breaks ties FIFO so deadline-free groups keep arrival order.
	seq int64
	// queuedAt is when the group entered the flush queue.
	queuedAt time.Time
}

// flushHeap orders one lane's detached groups earliest-deadline-first:
// deadlined groups ahead of deadline-free ones, earlier deadlines first,
// arrival order as the tiebreak. Lane selection stays weighted
// round-robin (see flushWorker); EDF applies within a lane's share.
type flushHeap []flushJob

func (h flushHeap) Len() int { return len(h) }
func (h flushHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.hasDL != b.hasDL {
		return a.hasDL
	}
	if a.hasDL && !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}
func (h flushHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *flushHeap) Push(x interface{}) { *h = append(*h, x.(flushJob)) }
func (h *flushHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = flushJob{}
	*h = old[:n-1]
	return j
}

// watchEntry is the scanner's per-group progress record.
type watchEntry struct {
	key     string
	backend string
	last    int64 // heartbeat value at the previous scan
	strikes int   // consecutive scans with no heartbeat advance
}

// WatchdogEvent is the diagnostic snapshot recorded when the watchdog
// cancels a no-progress batch group (see Service.FaultStatus).
type WatchdogEvent struct {
	Time    time.Time
	Key     string // coalescing key (configuration | epoch | plan)
	Backend string
	Lane    string
	Tenant  string // first member's tenant ("default" when unset)
	Epoch   uint64
	Stage   string // last stage the group reported before stalling
	Queries int
}

// sessionEntry is a cached backend session with a reference count (in-use
// entries are never evicted) and an LRU stamp. The session is opened
// outside the service lock — Open can build O(E) alias tables, and holding
// s.mu through that would stall every concurrent submission.
type sessionEntry struct {
	once    sync.Once
	ses     exec.Session
	err     error
	refs    int
	lastUse int64
	// epoch is the graph epoch the session serves; mutations prune idle
	// entries whose epoch is stale (their key can never be requested
	// again, so without pruning they would squat in the LRU).
	epoch uint64
	// discard marks a session whose engine faulted: its internal state is
	// suspect, so the last releaser closes it instead of returning it to
	// the cache (the entry is already out of the map; see discardSession).
	discard bool
}

// batchGroup accumulates compatible requests awaiting a flush. The
// serving view (base CSR + overlay snapshot + epoch) is resolved once,
// when the group is created; the epoch is part of the group key, so
// every co-batched request shares one consistent view even if mutations
// land while the group waits for its key's running group.
type batchGroup struct {
	cfg      WalkConfig
	lane     int
	base     *graph.CSR
	snap     *graph.Snapshot
	epoch    uint64
	requests []*request
	queries  int
	// slots is how many of its key's groups may run at once (keySlots).
	slots int
	// born is when the group's first request was admitted; queued is how
	// long the flushed group waited for a free dispatcher worker. The
	// admission controller's feedback window is the time a group's slots
	// were held, less that wait (which the budget itself creates).
	born   time.Time
	queued time.Duration
	// planned/plan carry the resolved execution plan under the "auto"
	// backend. The plan's fingerprint is part of the group key, so every
	// co-batched request shares one plan revision, and a breaker demotion
	// or restore keys later requests to a fresh group (and session)
	// instead of tearing this one.
	planned bool
	plan    plan.Plan
	// faulted marks a group whose engine fault noteFault has already
	// counted (touched only by the dispatcher worker running the group).
	faulted bool

	// The group context joins its members' contexts: it cancels when
	// every member's context is done (and the group is sealed — no more
	// joiners), so one impatient caller cannot abort work its co-batched
	// peers still want, but a group nobody is waiting for stops burning
	// engine time mid-walk. A member without a cancelable context pins
	// the group for its full run.
	ctx      context.Context
	cancel   context.CancelFunc
	cmu      sync.Mutex
	members  int
	canceled int
	sealed   bool // detached from pending: membership is final
	eternal  bool // some member can never cancel (Background et al.)
	stops    []func() bool
	// deadline/hasDL track the earliest member deadline for EDF flush
	// ordering (guarded by cmu; see addMember).
	deadline time.Time
	hasDL    bool

	// hb is the engine progress heartbeat: heartbeat-capable backends bump
	// it at every cooperative-stop checkpoint while running this group's
	// batch, and the watchdog scanner cancels the group when it stops
	// advancing. stalled records a watchdog kill so delivery accounts the
	// shed queries as watchdog-killed rather than caller-expired. stage is
	// the last dispatch stage the group entered (diagnostic only).
	hb      atomic.Int64
	stalled atomic.Bool
	stage   atomic.Value // string
}

// setStage records the group's current dispatch stage for watchdog
// diagnostics.
func (g *batchGroup) setStage(st string) { g.stage.Store(st) }

// lastStage returns the last recorded dispatch stage.
func (g *batchGroup) lastStage() string {
	if v, ok := g.stage.Load().(string); ok {
		return v
	}
	return ""
}

// earliestDeadline returns the earliest member deadline, if any member
// carried one.
func (g *batchGroup) earliestDeadline() (time.Time, bool) {
	g.cmu.Lock()
	defer g.cmu.Unlock()
	return g.deadline, g.hasDL
}

func newBatchGroup(cfg WalkConfig, base *graph.CSR, snap *graph.Snapshot, epoch uint64, planned bool, pl plan.Plan) *batchGroup {
	g := &batchGroup{
		cfg:     cfg,
		lane:    int(cfg.Lane),
		base:    base,
		snap:    snap,
		epoch:   epoch,
		planned: planned,
		plan:    pl,
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	g.born = time.Now()
	return g
}

// addMember registers one submitter's context with the group. Called
// while the group is still in pending (membership not yet sealed).
func (g *batchGroup) addMember(ctx context.Context) {
	g.cmu.Lock()
	defer g.cmu.Unlock()
	g.members++
	if dl, ok := ctx.Deadline(); ok {
		if !g.hasDL || dl.Before(g.deadline) {
			g.deadline, g.hasDL = dl, true
		}
	}
	if g.eternal {
		return
	}
	if ctx.Done() == nil {
		g.eternal = true
		return
	}
	g.stops = append(g.stops, context.AfterFunc(ctx, g.memberDone))
}

// memberDone runs when one member's context is done.
func (g *batchGroup) memberDone() {
	g.cmu.Lock()
	g.canceled++
	fire := g.sealed && !g.eternal && g.canceled >= g.members
	g.cmu.Unlock()
	if fire {
		g.cancel()
	}
}

// seal marks membership final (the group left pending). Until sealed,
// all-members-canceled must not cancel the group: a late joiner could
// still arrive and depend on the run.
func (g *batchGroup) seal() {
	g.cmu.Lock()
	g.sealed = true
	fire := !g.eternal && g.members > 0 && g.canceled >= g.members
	g.cmu.Unlock()
	if fire {
		g.cancel()
	}
}

// releaseCtx detaches the member watchers and releases the group
// context's resources after the run.
func (g *batchGroup) releaseCtx() {
	g.cmu.Lock()
	stops := g.stops
	g.stops = nil
	g.cmu.Unlock()
	for _, stop := range stops {
		stop()
	}
	g.cancel()
}

// request is one Submit call's share of a batch group.
type request struct {
	queries []Query
	tenant  string
	done    chan reply
	// delivered guards against double delivery when a contained panic
	// unwinds a group mid-distribution (only the group's single runner
	// goroutine touches it).
	delivered bool
}

type reply struct {
	res *Result
	err error
}

// NewService builds a serving frontend for g. Close releases it.
func NewService(g *Graph, cfg ServiceConfig) (*Service, error) {
	if cfg.Backend == "" {
		cfg.Backend = "auto"
	}
	if _, err := exec.Lookup(cfg.Backend); err != nil {
		return nil, err
	}
	sessionWorkers := cfg.Workers
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("ridgewalker: service workers %d, want >= 1", cfg.Workers)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("ridgewalker: service max batch %d, want >= 1", cfg.MaxBatch)
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 16
	}
	if cfg.MaxSessions < 1 {
		return nil, fmt.Errorf("ridgewalker: service max sessions %d, want >= 1", cfg.MaxSessions)
	}
	if cfg.MaxInFlight < AutoInFlight {
		return nil, fmt.Errorf("ridgewalker: service max in-flight %d, want AutoInFlight (-1), 0 (unbounded), or > 0", cfg.MaxInFlight)
	}
	weights := [admit.NumLanes]int{cfg.InteractiveWeight, cfg.BulkWeight}
	if weights != [admit.NumLanes]int{} {
		// A zero-weight lane would never drain — its queued groups (and
		// the submitters waiting on them) would hang forever.
		if cfg.InteractiveWeight < 1 || cfg.BulkWeight < 1 {
			return nil, fmt.Errorf("ridgewalker: lane weights %d:%d, want both >= 1 (or both 0 for the default)",
				cfg.InteractiveWeight, cfg.BulkWeight)
		}
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 5 * time.Second
	} else if cfg.BreakerCooldown < 0 {
		return nil, fmt.Errorf("ridgewalker: breaker cooldown %v, want >= 0", cfg.BreakerCooldown)
	}
	if cfg.QuarantineThreshold == 0 {
		cfg.QuarantineThreshold = 3
	}
	if cfg.WatchdogInterval == 0 {
		cfg.WatchdogInterval = 2 * time.Second
	}
	s := &Service{
		g:              g,
		vg:             graph.NewVersioned(g),
		cfg:            cfg,
		sessionWorkers: sessionWorkers,
		sessions:       map[string]*sessionEntry{},
		pending:        map[string]*batchGroup{},
		running:        map[string]int{},
		qcounts:        map[uint64]int{},
		watched:        map[*batchGroup]*watchEntry{},
		metrics: ServiceMetrics{
			PerBackend:   map[string]Counter{},
			PerAlgorithm: map[string]Counter{},
			PerEpoch:     map[uint64]Counter{},
		},
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = fault.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	s.admit = admit.NewController(admit.Config{
		Workers:      cfg.Workers,
		MaxInFlight:  cfg.MaxInFlight,
		LaneWeights:  weights,
		DefaultQuota: cfg.TenantQuota,
		TenantQuotas: cfg.TenantQuotas,
	})
	s.flushWRR = admit.NewWRR(weights)
	s.flushCond = sync.NewCond(&s.flushMu)
	if cfg.Backend == "auto" {
		s.planner = s.newPlanner(g)
		s.pins = map[plan.Class]*sampling.SamplerRef{}
	}
	s.flushWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.flushWorker()
	}
	if cfg.WatchdogInterval > 0 {
		s.watchStop = make(chan struct{})
		s.watchWG.Add(1)
		go s.watchdogLoop()
	}
	return s, nil
}

// newPlanner builds the auto backend's planner over base: the service's
// pinned knobs become planning constraints.
func (s *Service) newPlanner(base *graph.CSR) *plan.Planner {
	return exec.NewPlanner(base, exec.Config{
		Workers:           s.cfg.Workers,
		Cohort:            s.cfg.Cohort,
		MemoryBudgetBytes: s.cfg.MemoryBudgetBytes,
	})
}

// resolvePlan returns the current plan for cfg's class plus the key
// suffix that folds it into request coalescing. Manual backends plan
// nothing and contribute no suffix.
//
// This is also where an open circuit breaker half-opens: once per
// cooldown one caller is elected to re-check the demoted class's
// original engine (Planner.Restore runs a health check synchronously);
// success closes the breaker and reinstates the plan, failure re-arms
// the cooldown. Everyone else keeps being served the demoted cpu plan.
func (s *Service) resolvePlan(cfg WalkConfig) (pl plan.Plan, planned bool, suffix string, err error) {
	s.mu.Lock()
	p := s.planner
	s.mu.Unlock()
	if p == nil {
		return plan.Plan{}, false, "", nil
	}
	if s.breaker != nil {
		ck := s.classKey(cfg)
		if s.breaker.AllowProbe(ck) {
			if _, ok := p.Restore(cfg); ok {
				s.breaker.Reset(ck)
			} else {
				s.breaker.Reopen(ck)
			}
		}
	}
	// Contained: a panic-mode fault while pinning the class's sampler
	// (its build) must fail this submission, not crash the caller.
	cerr := fault.Contain("plan-resolve", func() error {
		s.pinSampler(p, cfg)
		var perr error
		pl, perr = p.PlanFor(cfg)
		return perr
	})
	if cerr != nil {
		return plan.Plan{}, false, "", cerr
	}
	return pl, true, "|" + pl.Fingerprint(), nil
}

// pinSampler borrows cfg's class sampler store for planner p's lifetime
// (see Service.pins), once per class. A budgeted service pins nothing:
// its sessions borrow tiered stores under other keys. A build error is
// left to the session open, which reports it.
func (s *Service) pinSampler(p *plan.Planner, cfg WalkConfig) {
	base, _, _ := s.vg.Serving()
	cls := plan.ClassOf(base, cfg)
	s.mu.Lock()
	_, pinned := s.pins[cls]
	s.mu.Unlock()
	if pinned || s.cfg.MemoryBudgetBytes != 0 {
		return
	}
	ref, err := walk.AcquireSampler(base, cfg)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, pinned := s.pins[cls]; pinned || s.closed || s.planner != p {
		// Raced another pin, Close, or a compaction that replaced the base.
		ref.Release()
		return
	}
	s.pins[cls] = ref
}

// releasePinsLocked drops every class pin. Called with s.mu held.
func (s *Service) releasePinsLocked() {
	for _, ref := range s.pins {
		ref.Release()
	}
	clear(s.pins)
}

// classKey is the circuit breaker's key for cfg's query class —
// plan-class granularity, matching what the planner can demote.
func (s *Service) classKey(cfg WalkConfig) string {
	base, _, _ := s.vg.Serving()
	return plan.ClassOf(base, cfg).String()
}

// PlanStatus reports the auto backend's per-class planning state: the
// resolved plan (chosen backend, cohort, memory budget) and whether the
// breaker has demoted the class. nil when the service runs a manually
// pinned backend.
func (s *Service) PlanStatus() []PlanClassStatus {
	s.mu.Lock()
	p := s.planner
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Status()
}

// ExplainPlan renders cfg's class, its plan and the reason for it,
// resolving the plan first if needed. Errors when the service runs a
// manual backend.
func (s *Service) ExplainPlan(cfg WalkConfig) (string, error) {
	s.mu.Lock()
	p := s.planner
	s.mu.Unlock()
	if p == nil {
		return "", fmt.Errorf("ridgewalker: backend %q is manually pinned (no planner)", s.cfg.Backend)
	}
	return p.Explain(cfg)
}

// flushWorker is one dispatcher-pool goroutine: it drains the per-lane
// flush queues, running one detached group at a time, until Close
// signals stop (by then the queues are empty — Close waits out inflight
// first). The next lane is picked by weighted round-robin over the
// non-empty lanes, so interactive groups overtake queued bulk while a
// sustained interactive flood still grants bulk its weight share of
// dispatches (starvation-free).
func (s *Service) flushWorker() {
	defer s.flushWG.Done()
	for {
		s.flushMu.Lock()
		for (s.flushEmptyLocked() || s.flushPaused) && !s.flushStop {
			s.flushCond.Wait()
		}
		lane := s.flushWRR.Next(func(l int) bool { return len(s.flushQs[l]) > 0 })
		if lane < 0 {
			s.flushMu.Unlock()
			return // stopping and every lane is empty
		}
		j := heap.Pop(&s.flushQs[lane]).(flushJob)
		if len(s.flushQs[lane]) == 0 {
			s.flushQs[lane] = nil // release the drained backing array
		}
		s.flushMu.Unlock()
		j.grp.queued = time.Since(j.queuedAt)
		s.runGroup(j.key, j.grp)
		s.finishGroup(j.key, j.grp.slots)
		s.inflight.Done()
	}
}

// keySlots is how many of grp's key's groups may run at once. A session
// that serializes its runs (the cpu engines, the simulators) gets one: a
// second group would only queue on its lock, where it could gather no
// more requests. A session that runs batches side by side (cpu-sharded)
// gets one per dispatcher worker.
func (s *Service) keySlots(grp *batchGroup) int {
	backend := s.cfg.Backend
	if grp.planned {
		backend = grp.plan.Backend
	}
	if exec.CapabilitiesOf(backend).ConcurrentRuns {
		return s.cfg.Workers
	}
	return 1
}

// finishGroup retires one of key's running groups. That frees one of the
// key's slots, so the group that gathered behind it (if any) is
// dispatched now. Called before the finished group's inflight.Done, so
// the next group registers with inflight while the count cannot reach
// zero and Close cannot return without running it.
func (s *Service) finishGroup(key string, slots int) {
	s.mu.Lock()
	s.running[key]--
	n := s.running[key]
	if n == 0 {
		delete(s.running, key)
	}
	var next *batchGroup
	if n < slots {
		next = s.pending[key]
	}
	s.mu.Unlock()
	if next != nil {
		s.flush(key, next)
	}
}

// flushEmptyLocked reports whether every lane's flush queue is empty.
// Called with flushMu held.
func (s *Service) flushEmptyLocked() bool {
	for _, q := range s.flushQs {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// pauseFlush / resumeFlush hold and release the dispatcher pool (test
// hook: enqueue several groups while paused, then observe EDF order).
func (s *Service) pauseFlush() {
	s.flushMu.Lock()
	s.flushPaused = true
	s.flushMu.Unlock()
}

func (s *Service) resumeFlush() {
	s.flushMu.Lock()
	s.flushPaused = false
	s.flushMu.Unlock()
	s.flushCond.Broadcast()
}

// cfgKey canonicalizes a walk configuration plus the graph epoch it
// serves for session caching and request coalescing. The epoch dimension
// keeps sessions epoch-consistent: a mutation advances the epoch, so
// later requests key to (and open) a fresh session over the new serving
// view while in-flight groups finish on theirs. The lane dimension keeps
// priority classes in separate groups (they drain through different
// flush queues); the tenant is deliberately excluded — quotas gate at
// admission and cross-tenant co-batching is trajectory-neutral.
func cfgKey(cfg WalkConfig, epoch uint64) string {
	return fmt.Sprintf("%d|%d|%g|%g|%g|%v|%d|l%d|e%d",
		cfg.Algorithm, cfg.WalkLength, cfg.Alpha, cfg.P, cfg.Q, cfg.Schema, cfg.Seed, cfg.Lane, epoch)
}

// acquireSession returns the cached session for a walk configuration,
// opening it on first use, and pins it against eviction until
// releaseSession. Sessions serialize their own batches, so sharing is
// safe. Deliberately usable while closing: Close drains pending groups
// through it.
func (s *Service) acquireSession(key string, grp *batchGroup) (*sessionEntry, error) {
	s.mu.Lock()
	e := s.sessions[key]
	if e == nil {
		e = &sessionEntry{epoch: grp.epoch}
		s.sessions[key] = e
	}
	e.refs++ // pin before evicting so the new entry cannot be the victim
	s.evictLocked()
	s.mu.Unlock()
	// First user opens the session; everyone else waits here. The service
	// lock is not held, so submissions for other configurations proceed.
	// The session opens over the serving view its key's epoch pinned —
	// the base CSR current at key time plus the overlay snapshot (nil
	// when the overlay was empty) — never over state read at open time,
	// which a racing mutation could have advanced past the key.
	e.once.Do(func() {
		backend := s.cfg.Backend
		ec := exec.Config{
			Walk:                grp.cfg,
			Platform:            s.cfg.Platform,
			Workers:             s.sessionWorkers,
			Cohort:              s.cfg.Cohort,
			MemoryBudgetBytes:   s.cfg.MemoryBudgetBytes,
			Snapshot:            grp.snap,
			DisableAsync:        s.cfg.DisableAsync,
			DisableDynamicSched: s.cfg.DisableDynamicSched,
		}
		if grp.planned {
			// The plan was resolved at key time (its fingerprint is in the
			// key), so the session opens the chosen concrete engine with the
			// resolved shape — never "auto" recursively, which would
			// ignore a breaker demotion.
			backend = grp.plan.Backend
			ec.Cohort = grp.plan.Cohort
			ec.MemoryBudgetBytes = grp.plan.MemoryBudgetBytes
		}
		// Contained: a panic during Open (e.g. an injected sampler-build
		// crash) becomes this entry's error — refs unwind, the entry
		// leaves the map, and every submitter gets a typed engine fault
		// instead of a dead process or a wedged sync.Once.
		e.err = fault.Contain("session-open", func() error {
			ses, err := exec.Open(backend, grp.base, ec)
			if err != nil {
				return err
			}
			e.ses = ses
			return nil
		})
	})
	if e.err != nil {
		s.mu.Lock()
		e.refs--
		if s.sessions[key] == e {
			delete(s.sessions, key) // failed open: allow a later retry
		}
		s.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// releaseSession unpins an acquired session and stamps its recency. The
// last releaser of a discarded (engine-faulted) session closes it — the
// entry already left the cache map, so nobody can re-acquire it.
func (s *Service) releaseSession(e *sessionEntry) {
	s.mu.Lock()
	e.refs--
	s.seq++
	e.lastUse = s.seq
	var victim exec.Session
	if e.discard && e.refs == 0 && e.ses != nil {
		victim = e.ses
		e.ses = nil
	}
	s.mu.Unlock()
	if victim != nil {
		victim.Close()
	}
}

// discardSession removes key's cached session after an engine fault: the
// engine's internal state (worker buffers, shard rings, tiered caches)
// is suspect after a contained panic, so the next request for this key
// opens a fresh session. Closed immediately when idle, by the last
// releaser otherwise.
func (s *Service) discardSession(key string) {
	s.mu.Lock()
	e := s.sessions[key]
	var victim exec.Session
	if e != nil {
		delete(s.sessions, key)
		if e.refs == 0 {
			victim = e.ses
			e.ses = nil
		} else {
			e.discard = true
		}
	}
	s.mu.Unlock()
	if victim != nil {
		victim.Close()
	}
}

// evictLocked enforces MaxSessions by closing the least recently used idle
// session. In-use sessions are skipped (the cap is soft while everything
// is busy). Called with s.mu held.
func (s *Service) evictLocked() {
	for len(s.sessions) > s.cfg.MaxSessions {
		var victimKey string
		var victim *sessionEntry
		for k, e := range s.sessions {
			if e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(s.sessions, victimKey)
		// refs==0 and the entry is out of the map, so nobody else can
		// reach it; Close is safe here (sessions serialize internally and
		// an idle session closes without blocking).
		if victim.ses != nil {
			victim.ses.Close()
		}
	}
}

// record folds served work into the metric maps. backend is the engine
// that actually served the batch — under "auto" the resolved backend
// name, so the metrics show where planned traffic really ran.
func (s *Service) record(backend string, alg Algorithm, epoch uint64, d Counter) {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	b := s.metrics.PerBackend[backend]
	b.add(d)
	s.metrics.PerBackend[backend] = b
	a := s.metrics.PerAlgorithm[alg.String()]
	a.add(d)
	s.metrics.PerAlgorithm[alg.String()] = a
	ep := s.metrics.PerEpoch[epoch]
	ep.add(d)
	s.metrics.PerEpoch[epoch] = ep
}

// Metrics returns a snapshot of served-work counters.
func (s *Service) Metrics() ServiceMetrics {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	out := ServiceMetrics{
		PerBackend:   make(map[string]Counter, len(s.metrics.PerBackend)),
		PerAlgorithm: make(map[string]Counter, len(s.metrics.PerAlgorithm)),
		PerEpoch:     make(map[uint64]Counter, len(s.metrics.PerEpoch)),
	}
	for k, v := range s.metrics.PerBackend {
		out.PerBackend[k] = v
	}
	for k, v := range s.metrics.PerAlgorithm {
		out.PerAlgorithm[k] = v
	}
	for k, v := range s.metrics.PerEpoch {
		out.PerEpoch[k] = v
	}
	ast := s.admit.Stats()
	out.PerLane = ast.PerLane
	out.PerTenant = ast.PerTenant
	return out
}

// AdmissionStatus snapshots the admission controller: the current
// in-flight budget (static, or Theorem VI.1-derived under
// AutoInFlight), admitted-but-unfinished queries, the EWMA service rate
// and feedback window driving the auto budget, and per-lane/per-tenant
// admitted/shed/expired counters.
func (s *Service) AdmissionStatus() AdmissionStats { return s.admit.Stats() }

// deadlineHeadroom converts a submitter's context deadline into the
// admission gate's headroom argument: time remaining until the deadline
// (floored at zero), or -1 when the context has none.
func deadlineHeadroom(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return -1
	}
	if h := time.Until(dl); h > 0 {
		return h
	}
	return 0
}

// Submit executes queries under cfg and returns their paths in input
// order. Concurrent submissions sharing a walk configuration are coalesced
// into one backend batch when the backend's determinism permits; the reply
// always covers exactly the caller's queries.
//
// Submissions pass the admission gate first: work beyond the in-flight
// budget (ServiceConfig.MaxInFlight), the tenant's quota, or the
// context deadline's feasibility is rejected immediately with
// ErrOverloaded / ErrQuotaExceeded instead of queueing — rejection
// costs microseconds where queueing would cost the deadline. ctx also
// propagates end to end: when every submitter of a batch has canceled,
// the batch itself is canceled mid-walk and its remaining steps shed.
func (s *Service) Submit(ctx context.Context, cfg WalkConfig, queries []Query) (*Result, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("ridgewalker: no queries")
	}
	if err := cfg.Validate(s.g); err != nil {
		return nil, err
	}
	lane := int(cfg.Lane)
	if s.quarantined(cfg, queries) {
		s.admit.Quarantine(lane, cfg.Tenant, len(queries))
		return nil, ErrQuarantined
	}
	if err := s.admit.Admit(lane, cfg.Tenant, len(queries), deadlineHeadroom(ctx)); err != nil {
		return nil, err
	}
	// Admitted: from here every path must release the in-flight slots —
	// early returns directly, joined groups through runGroup's delivery.
	pl, planned, suffix, err := s.resolvePlan(cfg)
	if err != nil {
		s.admit.Release(lane, len(queries))
		return nil, err
	}
	base, snap, epoch := s.vg.Serving()
	key := cfgKey(cfg, epoch) + suffix
	req := &request{queries: queries, tenant: cfg.Tenant, done: make(chan reply, 1)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.admit.Release(lane, len(queries))
		return nil, ErrServiceClosed
	}
	grp := s.pending[key]
	if grp == nil {
		grp = newBatchGroup(cfg, base, snap, epoch, planned, pl)
		grp.slots = s.keySlots(grp)
		s.pending[key] = grp
	}
	grp.requests = append(grp.requests, req)
	grp.addMember(ctx)
	grp.queries += len(queries)
	// Work-conserving: a key with a free slot dispatches at once; a busy
	// one batches until one of its running groups finishes (finishGroup)
	// or the group fills.
	dispatch := s.running[key] < grp.slots || grp.queries >= s.cfg.MaxBatch
	s.mu.Unlock()
	if dispatch {
		s.flush(key, grp)
	}

	select {
	case r := <-req.done:
		return r.res, r.err
	case <-ctx.Done():
		// This caller stops waiting. The batch keeps running while any
		// co-batched request still wants it; once every member's context
		// is done the group context cancels and the engine sheds the
		// batch's remaining steps mid-walk.
		return nil, ctx.Err()
	}
}

// flush dispatches a pending group. The first trigger (a Submit finding
// a free slot or the group full, the worker finishing one of the key's
// running groups) wins; the group is detached under the lock so the other
// finds it gone, and it counts as running for its key from then until
// finishGroup. The group is appended to the dispatcher pool's
// queue — a non-blocking O(1) enqueue, so Submit returns to its context
// select immediately and no goroutine ever parks on a hand-off — and
// executed by one of the Workers pool goroutines. The group is
// registered with inflight before it is queued, so Close cannot return
// before a worker has run it.
func (s *Service) flush(key string, grp *batchGroup) {
	s.mu.Lock()
	if s.pending[key] != grp {
		s.mu.Unlock()
		return
	}
	delete(s.pending, key)
	s.running[key]++
	s.inflight.Add(1)
	s.mu.Unlock()
	// Detached: no more joiners, so all-members-canceled may now cancel
	// the group context.
	grp.seal()
	j := flushJob{key: key, grp: grp, queuedAt: time.Now()}
	j.deadline, j.hasDL = grp.earliestDeadline()
	s.flushMu.Lock()
	s.flushSeq++
	j.seq = s.flushSeq
	heap.Push(&s.flushQs[grp.lane], j)
	s.flushMu.Unlock()
	s.flushCond.Signal()
}

// deliver hands one request its reply and returns its admission slots.
// An error reply while the group context is canceled means the admitted
// work either was killed by the watchdog (no engine progress — counted
// as a watchdog kill) or expired mid-flight (every submitter was gone),
// which the controller counts separately from shedding at the gate.
func (s *Service) deliver(grp *batchGroup, r *request, rep reply) {
	if r.delivered {
		return
	}
	r.delivered = true
	if rep.err != nil {
		switch {
		case grp.stalled.Load():
			s.admit.WatchdogKill(grp.lane, r.tenant, len(r.queries))
		case grp.ctx.Err() != nil:
			s.admit.Expire(grp.lane, r.tenant, len(r.queries))
		}
	}
	// Release before replying: a closed-loop caller that resubmits the
	// moment it hears back must not be refused on account of the slots
	// its own finished request still held.
	s.admit.Release(grp.lane, len(r.queries))
	r.done <- rep
}

// failGroup delivers err to every request the group has not yet
// answered. Used when a contained panic (or a pre-dispatch fault)
// aborts the group partway: every submitter still gets a reply and
// every admission slot is still released. An engine fault is folded
// into the fault machinery first (noteFault), so a submitter that hears
// back already sees the quarantine counts, breaker and demotion it caused.
func (s *Service) failGroup(key string, grp *batchGroup, err error) {
	s.noteFault(key, grp, err)
	for _, r := range grp.requests {
		s.deliver(grp, r, reply{err: err})
	}
}

// runGroup executes a flushed group on the cached session and distributes
// per-request results. The group runs under its joined member context —
// canceled exactly when every submitter's context is done — so
// abandoned batches shed their remaining steps at the engine's next
// cooperative checkpoint instead of completing for nobody.
//
// This is the service's primary fault boundary: the whole dispatch runs
// under fault.Contain, so an engine panic anywhere past this point —
// session open, sampler build, the run itself, result distribution —
// unwinds to here as a typed ErrEngineFault, is delivered to the
// group's submitters, and leaves the dispatcher worker (and the
// service) serving. The outcome then feeds fault accounting: per-query
// quarantine counts, the class circuit breaker, and session discard.
func (s *Service) runGroup(key string, grp *batchGroup) {
	defer grp.releaseCtx()
	backendName := s.cfg.Backend
	if grp.planned {
		backendName = grp.plan.Backend
	}
	if s.watchStop != nil && exec.CapabilitiesOf(backendName).Heartbeats {
		s.watchRegister(key, backendName, grp)
		defer s.watchUnregister(grp)
	}
	var runErr error
	cerr := fault.Contain("batch-group", func() error {
		if err := fault.Check(fault.DispatchFlush); err != nil {
			return err
		}
		grp.setStage("acquire-session")
		e, err := s.acquireSession(key, grp)
		if err != nil {
			runErr = err
			s.failGroup(key, grp, err)
			return nil
		}
		defer s.releaseSession(e)
		runErr = s.runGroupExec(key, grp, e.ses)
		return nil
	})
	if cerr != nil {
		runErr = cerr
		s.failGroup(key, grp, cerr)
	}
	s.noteGroupOutcome(grp, runErr)
}

// noteGroupOutcome folds one dispatched group's clean run into the fault
// machinery: it clears the members' quarantine counts and the breaker's
// consecutive-fault streak. A failed run changes nothing here — every
// path that delivers an engine fault has already called noteFault.
func (s *Service) noteGroupOutcome(grp *batchGroup, runErr error) {
	if runErr != nil {
		return
	}
	if s.breaker != nil {
		s.breaker.Success(plan.ClassOf(grp.base, grp.cfg).String())
	}
	for _, r := range grp.requests {
		s.clearQuarantine(grp.cfg, r.queries)
	}
}

// noteFault folds a group's engine fault into the fault machinery, once
// per group: it fault-counts and quarantine-counts every member query,
// discards the (suspect) cached session, and advances the class breaker
// — tripping it demotes the class to the known-good cpu engine until a
// half-open re-probe succeeds. Callers run it before delivering the
// fault reply. Other errors (cancellation, validation, overload) are not
// engine faults and change nothing.
func (s *Service) noteFault(key string, grp *batchGroup, runErr error) {
	if grp.faulted || !errors.Is(runErr, fault.ErrEngineFault) {
		return
	}
	grp.faulted = true
	for _, r := range grp.requests {
		s.admit.Fault(grp.lane, r.tenant, len(r.queries))
		s.noteQuarantine(grp.cfg, r.queries)
	}
	s.discardSession(key)
	if s.breaker != nil && s.breaker.Fault(plan.ClassOf(grp.base, grp.cfg).String()) && grp.planned {
		s.mu.Lock()
		p := s.planner
		s.mu.Unlock()
		if p != nil {
			p.Demote(grp.cfg, fmt.Sprintf("circuit breaker: %d consecutive engine faults (last: %v)",
				s.cfg.BreakerThreshold, runErr))
		}
	}
}

// runGroupExec runs the group's batch on ses and distributes per-request
// results, returning the engine error (already delivered to the
// affected requests) for outcome accounting.
func (s *Service) runGroupExec(key string, grp *batchGroup, ses exec.Session) error {
	backend := s.cfg.Backend
	if grp.planned {
		backend = grp.plan.Backend
	}
	// Backends that merge batches (the cpu family, whose per-query RNG
	// streams make walks independent of batch composition) take the
	// group's requests in one backend dispatch. The rest — simulators
	// routing walks through shared pipelines, models requiring unique query
	// IDs — run requests back-to-back instead, still amortizing the
	// session's sampler and configuration.
	merge := exec.CapabilitiesOf(backend).MergesBatches
	ctx := grp.ctx
	if merge {
		all := make([]walk.Query, 0, grp.queries)
		for _, r := range grp.requests {
			all = append(all, r.queries...)
		}
		grp.setStage("run")
		start := time.Now()
		res, err := ses.Run(ctx, exec.Batch{Queries: all, Heartbeat: &grp.hb})
		if err != nil {
			if grp.stalled.Load() {
				err = fmt.Errorf("%w: %v", ErrEngineStalled, err)
			}
			s.failGroup(key, grp, err)
			return err
		}
		grp.setStage("deliver")
		service := time.Since(start)
		s.admit.Observe(len(all), service, time.Since(grp.born)-grp.queued)
		subs := make([]*Result, len(grp.requests))
		lo := 0
		var steps int64
		for i, r := range grp.requests {
			hi := lo + len(r.queries)
			sub := &Result{Paths: res.Paths[lo:hi:hi]}
			if len(grp.requests) > 1 {
				sub.Paths = ownPaths(sub.Paths)
			}
			for _, p := range sub.Paths {
				sub.Steps += int64(len(p) - 1)
			}
			steps += sub.Steps
			subs[i] = sub
			lo = hi
		}
		// Recorded before any reply goes out, so a submitter that reads
		// Metrics the moment it hears back sees its own batch counted.
		s.record(backend, grp.cfg.Algorithm, grp.epoch, Counter{
			Requests: int64(len(grp.requests)),
			Queries:  int64(grp.queries),
			Steps:    steps,
			Batches:  1,
		})
		for i, r := range grp.requests {
			s.deliver(grp, r, reply{res: subs[i]})
		}
		return nil
	}
	var firstErr error
	for _, r := range grp.requests {
		grp.setStage("run")
		start := time.Now()
		res, err := ses.Run(ctx, exec.Batch{Queries: r.queries, Heartbeat: &grp.hb})
		if err != nil {
			if grp.stalled.Load() {
				err = fmt.Errorf("%w: %v", ErrEngineStalled, err)
			}
			if firstErr == nil {
				firstErr = err
			}
			s.noteFault(key, grp, err)
			s.deliver(grp, r, reply{err: err})
			continue
		}
		grp.setStage("deliver")
		s.admit.Observe(len(r.queries), time.Since(start), 0)
		s.record(backend, grp.cfg.Algorithm, grp.epoch, Counter{
			Requests: 1,
			Queries:  int64(len(r.queries)),
			Steps:    res.Steps,
			Batches:  1,
		})
		s.deliver(grp, r, reply{res: &Result{Paths: res.Paths, Steps: res.Steps}})
	}
	return firstErr
}

// ownPaths copies one request's share of a coalesced batch result into
// storage of its own. The engine packs a batch's paths into slabs in the
// order walks finish, so without the copy a caller that keeps its reply
// would keep the co-batched requests' paths alive with it.
func ownPaths(paths [][]graph.VertexID) [][]graph.VertexID {
	n := 0
	for _, p := range paths {
		n += len(p)
	}
	buf := make([]graph.VertexID, 0, n)
	own := make([][]graph.VertexID, len(paths))
	for i, p := range paths {
		lo := len(buf)
		buf = append(buf, p...)
		own[i] = buf[lo:len(buf):len(buf)]
	}
	return own
}

// quarantineKey hashes one query's deterministic identity — the walk
// configuration fields that select its trajectory plus (ID, Start) — so
// a poison query is recognized across submissions regardless of lane,
// tenant, or batching.
func quarantineKey(cfg WalkConfig, q Query) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%g|%g|%g|%v|%d|%d|%d",
		cfg.Algorithm, cfg.WalkLength, cfg.Alpha, cfg.P, cfg.Q, cfg.Schema, cfg.Seed, q.ID, q.Start)
	return h.Sum64()
}

// quarantined reports whether any of the queries has caused
// QuarantineThreshold engine faults.
func (s *Service) quarantined(cfg WalkConfig, queries []Query) bool {
	if s.cfg.QuarantineThreshold <= 0 {
		return false
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.qcounts) == 0 {
		return false // nothing tracked: skip hashing every query
	}
	for i := range queries {
		if s.qcounts[quarantineKey(cfg, queries[i])] >= s.cfg.QuarantineThreshold {
			return true
		}
	}
	return false
}

// noteQuarantine counts one engine fault against each query. New queries
// stop being tracked once the table is full; already-tracked queries
// keep counting.
func (s *Service) noteQuarantine(cfg WalkConfig, queries []Query) {
	if s.cfg.QuarantineThreshold <= 0 {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for i := range queries {
		k := quarantineKey(cfg, queries[i])
		if _, ok := s.qcounts[k]; !ok && len(s.qcounts) >= quarantineTableCap {
			continue
		}
		s.qcounts[k]++
	}
}

// clearQuarantine forgets the queries' fault counts after a clean run —
// a transient fault (since cleared) must not accumulate toward
// quarantine forever.
func (s *Service) clearQuarantine(cfg WalkConfig, queries []Query) {
	if s.cfg.QuarantineThreshold <= 0 {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if len(s.qcounts) == 0 {
		return
	}
	for i := range queries {
		delete(s.qcounts, quarantineKey(cfg, queries[i]))
	}
}

// watchRegister puts a dispatched group under watchdog observation.
func (s *Service) watchRegister(key, backend string, grp *batchGroup) {
	s.watchMu.Lock()
	s.watched[grp] = &watchEntry{key: key, backend: backend, last: grp.hb.Load()}
	s.watchMu.Unlock()
}

// watchUnregister removes a finished group from observation.
func (s *Service) watchUnregister(grp *batchGroup) {
	s.watchMu.Lock()
	delete(s.watched, grp)
	s.watchMu.Unlock()
}

// watchdogLoop scans dispatched groups every WatchdogInterval until
// Close.
func (s *Service) watchdogLoop() {
	defer s.watchWG.Done()
	t := time.NewTicker(s.cfg.WatchdogInterval)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
			s.watchdogScan()
		}
	}
}

// watchdogScan cancels groups whose engine heartbeat has not advanced
// for two consecutive scans: the batch is shed (its submitters get the
// engine's cancellation error, accounted as watchdog kills) and a
// diagnostic snapshot is recorded. Two strikes, not one, so a group
// dispatched just before a scan isn't killed for arriving late.
func (s *Service) watchdogScan() {
	var kills []*batchGroup
	s.watchMu.Lock()
	for grp, e := range s.watched {
		cur := grp.hb.Load()
		if cur != e.last {
			e.last = cur
			e.strikes = 0
			continue
		}
		if e.strikes++; e.strikes < 2 {
			continue
		}
		tenant := "default"
		if len(grp.requests) > 0 && grp.requests[0].tenant != "" {
			tenant = grp.requests[0].tenant
		}
		ev := WatchdogEvent{
			Time:    time.Now(),
			Key:     e.key,
			Backend: e.backend,
			Lane:    admit.LaneName(grp.lane),
			Tenant:  tenant,
			Epoch:   grp.epoch,
			Stage:   grp.lastStage(),
			Queries: grp.queries,
		}
		s.watchEvents = append(s.watchEvents, ev)
		if len(s.watchEvents) > watchdogEventCap {
			s.watchEvents = append(s.watchEvents[:0], s.watchEvents[len(s.watchEvents)-watchdogEventCap:]...)
		}
		delete(s.watched, grp)
		kills = append(kills, grp)
	}
	s.watchMu.Unlock()
	for _, grp := range kills {
		// stalled before cancel: delivery observes the flag when the
		// engine's cancellation error surfaces.
		grp.stalled.Store(true)
		grp.cancel()
	}
}

// FaultReport is a point-in-time snapshot of the service's fault
// machinery (see Service.FaultStatus).
type FaultReport struct {
	// BreakerOpens counts breaker-open transitions since start (survives
	// CompactGraph's breaker reset).
	BreakerOpens int64
	// Breakers lists per-class breaker states, sorted by class key.
	Breakers []BreakerStatus
	// Watchdog holds the most recent watchdog-kill diagnostics (bounded).
	Watchdog []WatchdogEvent
	// QuarantinedQueries counts queries currently at or past the
	// quarantine threshold.
	QuarantinedQueries int
}

// FaultStatus snapshots the fault machinery: per-class circuit-breaker
// states, recorded watchdog kills, and the quarantine table.
// Per-lane/per-tenant fault counters flow through Metrics (and
// AdmissionStatus) alongside the admission counters.
func (s *Service) FaultStatus() FaultReport {
	var rep FaultReport
	if s.breaker != nil {
		rep.BreakerOpens = s.breaker.Opens()
		rep.Breakers = s.breaker.Snapshot()
	}
	s.watchMu.Lock()
	rep.Watchdog = append([]WatchdogEvent(nil), s.watchEvents...)
	s.watchMu.Unlock()
	s.qmu.Lock()
	for _, c := range s.qcounts {
		if c >= s.cfg.QuarantineThreshold {
			rep.QuarantinedQueries++
		}
	}
	s.qmu.Unlock()
	return rep
}

// Stream executes queries under cfg, delivering each finished walk to fn
// as it completes instead of materializing all paths — the request's
// memory footprint stays O(queries), not O(steps). The path passed to fn
// is only valid during the callback. Streaming requests bypass batching
// (delivery is per-caller) but share the cached session.
//
// Admission is leased per chunk of at most MaxBatch queries, not for the
// whole run up front: a long stream holds in-flight slots only for the
// chunk the engine is actually walking, so it cannot monopolize the
// budget against interactive submissions for its full duration. Each
// chunk re-passes the gate (with the caller's remaining deadline
// headroom); a mid-stream rejection returns ErrOverloaded with all
// completed chunks already delivered. Engine faults are contained per
// chunk like batch dispatches — typed error to the caller, fault
// accounting, session discard, breaker advance.
func (s *Service) Stream(ctx context.Context, cfg WalkConfig, queries []Query, fn func(WalkOutput) error) error {
	if len(queries) == 0 {
		return fmt.Errorf("ridgewalker: no queries")
	}
	if err := cfg.Validate(s.g); err != nil {
		return err
	}
	lane := int(cfg.Lane)
	if s.quarantined(cfg, queries) {
		s.admit.Quarantine(lane, cfg.Tenant, len(queries))
		return ErrQuarantined
	}
	pl, planned, suffix, err := s.resolvePlan(cfg)
	if err != nil {
		return err
	}
	base, snap, epoch := s.vg.Serving()
	key := cfgKey(cfg, epoch) + suffix
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServiceClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	e, err := s.acquireSession(key, &batchGroup{cfg: cfg, lane: lane, base: base, snap: snap, epoch: epoch, planned: planned, plan: pl})
	if err != nil {
		if errors.Is(err, fault.ErrEngineFault) {
			s.admit.Fault(lane, cfg.Tenant, len(queries))
			s.noteQuarantine(cfg, queries)
			s.noteStreamFault(cfg, planned, err)
		}
		return err
	}
	defer s.releaseSession(e)
	backend := s.cfg.Backend
	if planned {
		backend = pl.Backend
	}
	var totalSteps int64
	for lo := 0; lo < len(queries); lo += s.cfg.MaxBatch {
		hi := lo + s.cfg.MaxBatch
		if hi > len(queries) {
			hi = len(queries)
		}
		chunk := queries[lo:hi:hi]
		if err := s.admit.Admit(lane, cfg.Tenant, len(chunk), deadlineHeadroom(ctx)); err != nil {
			return err // mid-stream shed: earlier chunks were delivered
		}
		var steps int64
		chunkStart := time.Now()
		cerr := fault.Contain("stream", func() error {
			return e.ses.Stream(ctx, exec.Batch{Queries: chunk}, func(w WalkOutput) error {
				steps += w.Steps
				return fn(w)
			})
		})
		totalSteps += steps
		if cerr != nil {
			switch {
			case errors.Is(cerr, fault.ErrEngineFault):
				s.admit.Fault(lane, cfg.Tenant, len(chunk))
				s.noteQuarantine(cfg, chunk)
				s.discardSession(key)
				s.noteStreamFault(cfg, planned, cerr)
			case ctx.Err() != nil:
				// The caller's deadline expired (or it canceled) mid-stream:
				// the engine shed the remaining walks at its next checkpoint.
				s.admit.Expire(lane, cfg.Tenant, len(chunk))
			}
			s.admit.Release(lane, len(chunk))
			return cerr
		}
		s.admit.Release(lane, len(chunk))
		// One observation per admitted chunk: the chunk is the unit the
		// gate admitted and the engine ran, whatever the stream's length.
		s.admit.Observe(len(chunk), time.Since(chunkStart), 0)
	}
	if s.breaker != nil {
		s.breaker.Success(plan.ClassOf(base, cfg).String())
	}
	s.clearQuarantine(cfg, queries)
	s.record(backend, cfg.Algorithm, epoch, Counter{
		Requests: 1,
		Queries:  int64(len(queries)),
		Steps:    totalSteps,
		Batches:  1,
	})
	return nil
}

// noteStreamFault advances the class breaker for a streaming engine
// fault, demoting the class when it trips (the batch path's equivalent
// lives in noteFault).
func (s *Service) noteStreamFault(cfg WalkConfig, planned bool, runErr error) {
	if s.breaker == nil {
		return
	}
	if !s.breaker.Fault(s.classKey(cfg)) || !planned {
		return
	}
	s.mu.Lock()
	p := s.planner
	s.mu.Unlock()
	if p != nil {
		p.Demote(cfg, fmt.Sprintf("circuit breaker: %d consecutive engine faults (last: %v)",
			s.cfg.BreakerThreshold, runErr))
	}
}

// InsertEdges adds a batch of edges to the served graph, advancing its
// epoch. Undirected graphs mirror each edge and weighted graphs assign
// inserted edges the construction-recipe weight, so a later compaction
// (or a cold rebuild of the final edge list) is indistinguishable from
// the mutated view. In-flight requests finish on the epoch they started
// with; requests submitted after InsertEdges returns see the new edges.
// The batch is atomic: on error nothing is applied.
func (s *Service) InsertEdges(edges []Edge) error {
	if err := s.vg.InsertEdges(edges); err != nil {
		return err
	}
	s.pruneStaleSessions(1)
	return nil
}

// DeleteEdges removes a batch of edges from the served graph, advancing
// its epoch (see InsertEdges for visibility semantics). Deleting an edge
// the current view does not contain is an error, and the batch is
// atomic: on error nothing is applied.
func (s *Service) DeleteEdges(edges []Edge) error {
	if err := s.vg.DeleteEdges(edges); err != nil {
		return err
	}
	s.pruneStaleSessions(1)
	return nil
}

// CompactGraph folds all accumulated mutations into a fresh base CSR and
// empties the overlay, advancing the epoch. Subsequent sessions serve
// the compacted graph flat — no overlay probes, no derived sampler rows
// — so periodic compaction bounds the overlay cost of a long-lived
// mutating service. It is safe to call from a background goroutine while
// requests are being served. Returns the new base graph.
func (s *Service) CompactGraph() *Graph {
	g := s.vg.Compact()
	s.pruneStaleSessions(0) // sessions over the old base share nothing with the new one
	s.mu.Lock()
	if s.planner != nil {
		// Compaction replaces the base CSR, so the planner's class
		// states and sampler pins describe a dead graph: rebuild over the
		// new base. Classes re-pin their stores on their next request.
		s.planner = s.newPlanner(g)
		s.releasePinsLocked()
	}
	s.mu.Unlock()
	// Budget handoff: the admission controller's EWMA service rate (and
	// the Theorem VI.1 auto budget derived from it) was observed against
	// the old base — flat-store layouts, overlay probe costs, sampler
	// shapes all changed. Re-seed from the first post-compaction
	// dispatches instead of steering the new graph by the old one's
	// rate. The breaker likewise restarts closed: its faulting sessions
	// died with the old epoch's keys (opens-so-far stays counted).
	s.admit.ResetObservations()
	if s.breaker != nil {
		s.breaker.ResetAll()
	}
	return g
}

// GraphEpoch returns the served graph's current epoch (0 until the first
// mutation).
func (s *Service) GraphEpoch() uint64 { return s.vg.Epoch() }

// GraphStats returns the served graph's mutation accounting.
func (s *Service) GraphStats() GraphVersionStats { return s.vg.Stats() }

// pruneStaleSessions closes idle cached sessions keyed to epochs more
// than keep generations older than the current one. Their keys can never
// be requested again (the epoch only advances), so without pruning every
// mutation would leave a dead session squatting in the LRU until cap
// pressure evicted it. Busy stale sessions are left to finish and age
// out normally.
//
// Edge mutations keep one generation: the previous epoch's idle session
// holds the last reference to the class's base sampler store, and closing
// it before the new epoch's session has opened makes that session rebuild
// the whole store (tens of milliseconds for an alias store, stalling the
// first read of every epoch) instead of deriving the dirty rows.
func (s *Service) pruneStaleSessions(keep uint64) {
	epoch := s.vg.Epoch()
	s.mu.Lock()
	var victims []exec.Session
	for k, e := range s.sessions {
		if e.refs == 0 && e.epoch+keep < epoch {
			delete(s.sessions, k)
			if e.ses != nil {
				victims = append(victims, e.ses)
			}
		}
	}
	s.mu.Unlock()
	for _, ses := range victims {
		ses.Close()
	}
}

// Close flushes pending groups, waits for in-flight work, and releases the
// cached sessions. Submissions after Close fail.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	groups := make(map[string]*batchGroup, len(s.pending))
	for k, g := range s.pending {
		groups[k] = g
	}
	s.mu.Unlock()
	for k, g := range groups {
		// A worker finishing k's running group may flush g first, so
		// detach only if g is still pending, then run inline (beside any
		// running group of k: the session serializes them or, for a
		// concurrent session, runs them side by side). Each group
		// either drains normally (some submitter still waits) or — when
		// every member already canceled — sheds via its joined context;
		// either way every request gets a reply and no group is silently
		// dropped.
		s.mu.Lock()
		if s.pending[k] == g {
			delete(s.pending, k)
			s.mu.Unlock()
			g.seal()
			s.runGroup(k, g)
		} else {
			s.mu.Unlock()
		}
	}
	s.inflight.Wait()
	// All flushes registered with inflight have been executed by the pool
	// (flush registers before it enqueues), and closed stops new ones, so
	// the queue is empty and the workers can drain out.
	s.flushMu.Lock()
	s.flushStop = true
	s.flushMu.Unlock()
	s.flushCond.Broadcast()
	s.flushWG.Wait()
	if s.watchStop != nil {
		close(s.watchStop)
		s.watchWG.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	keys := make([]string, 0, len(s.sessions))
	for k := range s.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := s.sessions[k]
		if e.ses == nil {
			continue
		}
		if err := e.ses.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.sessions = map[string]*sessionEntry{}
	s.releasePinsLocked()
	return firstErr
}
