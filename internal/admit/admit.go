// Package admit is the serving layer's overload control: a bounded
// in-flight admission budget derived from the paper's Theorem VI.1
// delayed-feedback dispatcher math (internal/queuing), priority lanes
// with weighted starvation-free draining, and per-tenant token-bucket
// quotas.
//
// The hardware zero-bubble scheduler and a software front door face the
// same tradeoff: queue too little and the engine bubbles between
// batches, queue too much and latency grows without bound while
// throughput gains nothing. Theorem VI.1 gives the principled depth —
// D = N + ⌈mu·c⌉·N for N servers consuming mu tasks per cycle under
// feedback delayed by c cycles. Here c is the round trip of admitted
// work (from admission to the delivery that frees its slots), mu is the
// EWMA-observed per-worker service rate, N is the dispatching worker
// count and a worker's resident task is one dispatched group, so the
// budget tracks what the engine demonstrably sustains instead of a
// hand-tuned constant: enough queued work to keep every worker busy
// across one feedback window, nothing more. Work beyond the budget is
// rejected immediately with ErrOverloaded — an overloaded service
// degrades into a fast-failing one, never into an unbounded queue.
package admit

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ridgewalker/internal/queuing"
)

// ErrOverloaded is returned by Admit when the request would exceed the
// in-flight budget (or provably cannot meet its deadline). Callers
// should fail the request fast — the whole point is that rejection
// costs microseconds while queueing would cost the deadline.
var ErrOverloaded = errors.New("admit: overloaded, request shed")

// ErrQuotaExceeded is returned by Admit when the submitting tenant's
// token bucket has run dry. Unlike ErrOverloaded it signals a per-tenant
// policy limit, not service-wide pressure: other tenants are unaffected.
var ErrQuotaExceeded = errors.New("admit: tenant quota exceeded")

// NumLanes is the number of priority lanes (interactive, bulk).
const NumLanes = 2

// LaneName returns the conventional name of a lane index.
func LaneName(lane int) string {
	switch lane {
	case 0:
		return "interactive"
	case 1:
		return "bulk"
	}
	return fmt.Sprintf("lane%d", lane)
}

// Auto selects the feedback-derived budget (see Config.MaxInFlight).
const Auto = -1

// DefaultLaneWeights is the default interactive:bulk draining ratio.
var DefaultLaneWeights = [NumLanes]int{4, 1}

// coldBudgetPerWorker is the per-worker in-flight allowance before the
// controller has observed any service rate (generous on purpose: the
// budget exists to bound steady-state backlog, not to throttle warm-up).
const coldBudgetPerWorker = 64

// minHeadroom floors the feedback window the auto budget targets, so a
// microsecond-scale service time cannot collapse the budget below what
// keeps the workers fed between scheduler reactions. Those reactions are
// coarse: Go's netpoller rounds any sleep or timer under 1 ms up to a
// whole millisecond, so a submitter pacing its arrivals wakes up to
// 1 ms late, and a service goroutine parked on a timer or poll wakes up
// to 1 ms late too. The floor covers one such wake on each side of the
// round trip: 2 ms.
const minHeadroom = 2 * time.Millisecond

// ewmaAlpha is the smoothing factor for the service-rate and
// feedback-delay trackers: new observations carry 20%, so a handful of
// groups re-centers the budget while a single outlier cannot swing it.
const ewmaAlpha = 0.2

// Quota is a tenant's token-bucket allowance: QPS queries per second of
// sustained refill, Burst queries of instantaneous depth. The zero
// Quota means unlimited.
type Quota struct {
	QPS   float64
	Burst float64
}

// unlimited reports whether the quota imposes no limit.
func (q Quota) unlimited() bool { return q.QPS <= 0 && q.Burst <= 0 }

// Config configures a Controller.
type Config struct {
	// Workers is the downstream engine's worker count — Theorem VI.1's N.
	// Must be >= 1.
	Workers int
	// MaxInFlight bounds admitted-but-unfinished queries. 0 disables the
	// budget (admit everything; metrics and quotas still apply), Auto (-1)
	// derives it from the observed service rate and feedback delay, and a
	// positive value pins it by hand.
	MaxInFlight int
	// LaneWeights sets the per-lane share of the budget and the flush
	// draining ratio. Zero means DefaultLaneWeights (4:1). Every lane with
	// a positive weight is starvation-free: a full weight round grants it
	// at least one dispatch.
	LaneWeights [NumLanes]int
	// DefaultQuota applies to tenants without an explicit entry in
	// TenantQuotas. The zero Quota is unlimited.
	DefaultQuota Quota
	// TenantQuotas overrides DefaultQuota per tenant name.
	TenantQuotas map[string]Quota
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Counters tallies admission outcomes in queries (the unit of engine
// work; a request admits all its queries or none).
type Counters struct {
	// Admitted counts queries that passed admission.
	Admitted int64
	// Shed counts queries rejected at admission (budget or quota).
	Shed int64
	// Expired counts admitted queries whose submitters' contexts were all
	// gone by completion — work the deadline-propagation path aborted
	// mid-walk (or that finished for nobody).
	Expired int64
	// Faulted counts admitted queries whose batch group died to a
	// contained engine fault (injected or organic panic / typed engine
	// error) — delivered as ErrEngineFault, slots released.
	Faulted int64
	// Quarantined counts queries rejected at admission because their
	// request signature faulted K times in a row.
	Quarantined int64
	// WatchdogKilled counts admitted queries whose batch group the
	// watchdog canceled for lack of heartbeat progress (also counted
	// Expired by the shed accounting).
	WatchdogKilled int64
}

func (c *Counters) add(d Counters) {
	c.Admitted += d.Admitted
	c.Shed += d.Shed
	c.Expired += d.Expired
	c.Faulted += d.Faulted
	c.Quarantined += d.Quarantined
	c.WatchdogKilled += d.WatchdogKilled
}

// Stats is a point-in-time snapshot of the controller.
type Stats struct {
	// Budget is the current total in-flight budget (0 when unbounded).
	Budget int
	// InFlight is the admitted-but-unfinished query count.
	InFlight int
	// ServiceRate is the EWMA per-worker service rate in queries/sec (0
	// until the first observation).
	ServiceRate float64
	// FeedbackDelay is the EWMA round trip of a dispatched group, the
	// window the auto budget covers.
	FeedbackDelay time.Duration
	// PerLane and PerTenant tally outcomes by lane name and tenant name
	// (the empty tenant is reported as "default").
	PerLane   map[string]Counters
	PerTenant map[string]Counters
}

// Controller is the admission gate. One Controller fronts one engine;
// all methods are safe for concurrent use.
type Controller struct {
	mu      sync.Mutex
	workers int
	maxCfg  int
	weights [NumLanes]int
	sumW    int

	inflight     [NumLanes]int
	muRate       float64 // EWMA queries/sec per worker
	delaySec     float64 // EWMA admission-to-delivery round trip (the feedback window)
	groupSize    float64 // EWMA queries per dispatched group
	laneCounters [NumLanes]Counters
	tenants      map[string]*tenantState

	defQuota Quota
	quotas   map[string]Quota
	now      func() time.Time
}

// tenantState is one tenant's token bucket plus outcome counters.
type tenantState struct {
	counters Counters
	tokens   float64
	last     time.Time
	filled   bool
}

// NewController builds an admission controller. It panics on a
// non-positive worker count (a programming error, mirroring
// queuing.MinDepth's contract).
func NewController(cfg Config) *Controller {
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("admit: workers %d, want >= 1", cfg.Workers))
	}
	w := cfg.LaneWeights
	if w == [NumLanes]int{} {
		w = DefaultLaneWeights
	}
	sum := 0
	for i, wi := range w {
		if wi < 0 {
			panic(fmt.Sprintf("admit: lane %d weight %d, want >= 0", i, wi))
		}
		sum += wi
	}
	if sum == 0 {
		panic("admit: all lane weights zero")
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	quotas := make(map[string]Quota, len(cfg.TenantQuotas))
	for k, v := range cfg.TenantQuotas {
		quotas[k] = v
	}
	return &Controller{
		workers:  cfg.Workers,
		maxCfg:   cfg.MaxInFlight,
		weights:  w,
		sumW:     sum,
		tenants:  map[string]*tenantState{},
		defQuota: cfg.DefaultQuota,
		quotas:   quotas,
		now:      now,
	}
}

// budgetLocked resolves the current total in-flight budget: the static
// cap when configured, otherwise Theorem VI.1 over the EWMA-observed
// service rate and feedback window. 0 means unbounded.
func (c *Controller) budgetLocked() int {
	switch {
	case c.maxCfg > 0:
		return c.maxCfg
	case c.maxCfg == 0:
		return 0
	}
	if c.muRate <= 0 || c.delaySec <= 0 {
		// Cold start: no service-rate evidence yet, so err on the side of
		// keeping the engine fed. The first completed group re-derives.
		return c.workers * coldBudgetPerWorker
	}
	// The feedback window is the observed round trip — the time between
	// the controller admitting work and learning, via its delivery, that
	// the capacity is free again — floored so a microsecond-scale engine
	// cannot starve itself of pipeline depth. The engine's run time alone
	// is only part of that loop: the wait behind the key's running group,
	// the hand-off to a worker and the delivery hold slots too, and a
	// window that leaves them out prices the budget below what keeps the
	// engine fed.
	window := c.delaySec
	if min := minHeadroom.Seconds(); window < min {
		window = min
	}
	// Theorem VI.1 counts tasks and gives every server one resident task
	// beside the ⌈mu·c⌉ that cover the window. A worker here serves a
	// whole group at a time, so in query units its resident task is one
	// group: completions free a group's worth of slots at once, and the
	// in-flight count swings by that much around the window's mean.
	d := queuing.MinDepth(c.workers, c.muRate*window, 1) + c.workers*(int(math.Ceil(c.groupSize))-1)
	if min := 2 * c.workers; d < min {
		d = min
	}
	return d
}

// laneShareLocked is lane's slice of the budget (ceil-rounded so every
// positively weighted lane gets at least one slot).
func (c *Controller) laneShareLocked(budget, lane int) int {
	if c.weights[lane] == 0 {
		return 0
	}
	share := (budget*c.weights[lane] + c.sumW - 1) / c.sumW
	if share < 1 {
		share = 1
	}
	return share
}

// tenantLocked returns (creating on first use) a tenant's state with its
// bucket refilled to the current time.
func (c *Controller) tenantLocked(tenant string) (*tenantState, Quota) {
	ts := c.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		c.tenants[tenant] = ts
	}
	q, ok := c.quotas[tenant]
	if !ok {
		q = c.defQuota
	}
	if q.unlimited() {
		return ts, q
	}
	burst := q.Burst
	if burst <= 0 {
		burst = math.Max(q.QPS, 1)
	}
	t := c.now()
	if !ts.filled {
		ts.tokens = burst
		ts.filled = true
	} else if dt := t.Sub(ts.last).Seconds(); dt > 0 {
		ts.tokens = math.Min(burst, ts.tokens+q.QPS*dt)
	}
	ts.last = t
	return ts, q
}

// Admit gates a request of n queries on lane for tenant. headroom is the
// time until the submitter's deadline (negative when it has none). It
// returns nil and reserves n in-flight slots, or a typed error:
// ErrQuotaExceeded when the tenant's bucket is dry, ErrOverloaded when
// the lane's budget share is full or the queued work already exceeds the
// deadline. Every nil return must be paired with exactly one Release.
func (c *Controller) Admit(lane int, tenant string, n int, headroom time.Duration) error {
	if lane < 0 || lane >= NumLanes {
		return fmt.Errorf("admit: lane %d out of range [0,%d)", lane, NumLanes)
	}
	if n < 1 {
		return fmt.Errorf("admit: %d queries, want >= 1", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, q := c.tenantLocked(tenant)
	if !q.unlimited() && ts.tokens < float64(n) {
		c.shedLocked(lane, ts, n)
		return fmt.Errorf("admit: tenant %q over quota (%.0f qps, burst %.0f): %w",
			displayTenant(tenant), q.QPS, q.Burst, ErrQuotaExceeded)
	}
	budget := c.budgetLocked()
	if budget > 0 {
		total := 0
		for _, f := range c.inflight {
			total += f
		}
		// Progress guarantee: an idle engine admits anything, however
		// large — a single request bigger than the budget must still run.
		if c.inflight[lane] > 0 {
			if share := c.laneShareLocked(budget, lane); c.inflight[lane]+n > share {
				c.shedLocked(lane, ts, n)
				return fmt.Errorf("admit: %s lane at %d/%d in-flight queries (budget %d): %w",
					LaneName(lane), c.inflight[lane], share, budget, ErrOverloaded)
			}
		}
		// Deadline feasibility: with a known service rate, work queued
		// ahead of this request bounds its wait from below; if that alone
		// exceeds the headroom, admission would only burn engine time on a
		// result nobody will read. Shed it now instead.
		if headroom >= 0 && c.muRate > 0 && total > 0 {
			wait := float64(total) / (c.muRate * float64(c.workers))
			if wait > headroom.Seconds() {
				c.shedLocked(lane, ts, n)
				return fmt.Errorf("admit: predicted wait %.1fms exceeds deadline headroom %.1fms: %w",
					wait*1e3, headroom.Seconds()*1e3, ErrOverloaded)
			}
		}
	}
	if !q.unlimited() {
		ts.tokens -= float64(n)
	}
	c.inflight[lane] += n
	c.laneCounters[lane].Admitted += int64(n)
	ts.counters.Admitted += int64(n)
	return nil
}

// shedLocked records a rejection.
func (c *Controller) shedLocked(lane int, ts *tenantState, n int) {
	c.laneCounters[lane].Shed += int64(n)
	ts.counters.Shed += int64(n)
}

// Release returns n admitted queries' in-flight slots. Call exactly once
// per successful Admit, when the request's reply is delivered (success
// or failure) — the budget tracks work the engine still owes, not work
// that succeeded.
func (c *Controller) Release(lane int, n int) {
	if lane < 0 || lane >= NumLanes || n < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight[lane] -= n
	if c.inflight[lane] < 0 {
		c.inflight[lane] = 0
	}
}

// Expire records that n admitted queries on lane for tenant completed
// with every submitter's context already canceled or expired — shed
// mid-flight by deadline propagation. It does not release slots; pair it
// with Release as usual.
func (c *Controller) Expire(lane int, tenant string, n int) {
	if lane < 0 || lane >= NumLanes || n < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.laneCounters[lane].Expired += int64(n)
	ts, _ := c.tenantLocked(tenant)
	ts.counters.Expired += int64(n)
}

// Fault records that n admitted queries on lane for tenant were
// delivered an engine-fault reply (contained panic or typed engine
// error). Like Expire it only counts; pair with Release as usual.
func (c *Controller) Fault(lane int, tenant string, n int) {
	if lane < 0 || lane >= NumLanes || n < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.laneCounters[lane].Faulted += int64(n)
	ts, _ := c.tenantLocked(tenant)
	ts.counters.Faulted += int64(n)
}

// Quarantine records n queries rejected at the door because their
// request signature is quarantined (no slots were taken).
func (c *Controller) Quarantine(lane int, tenant string, n int) {
	if lane < 0 || lane >= NumLanes || n < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.laneCounters[lane].Quarantined += int64(n)
	ts, _ := c.tenantLocked(tenant)
	ts.counters.Quarantined += int64(n)
}

// WatchdogKill records that n admitted queries' batch group was killed
// by the progress watchdog. Counting only; pair with Release as usual.
func (c *Controller) WatchdogKill(lane int, tenant string, n int) {
	if lane < 0 || lane >= NumLanes || n < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.laneCounters[lane].WatchdogKilled += int64(n)
	ts, _ := c.tenantLocked(tenant)
	ts.counters.WatchdogKilled += int64(n)
}

// ResetObservations clears the observation EWMAs (rate, feedback delay
// and group size) so the auto budget re-derives from fresh observations.
// The serving layer calls it on graph compaction: a new epoch's
// per-query cost can differ enough that pre-compaction history misprices
// the in-flight budget. In-flight accounting and counters are untouched.
func (c *Controller) ResetObservations() {
	c.mu.Lock()
	c.muRate, c.delaySec, c.groupSize = 0, 0, 0
	c.mu.Unlock()
}

// Observe feeds a completed dispatch back into the budget: a group of n
// queries ran for service (engine wall time) and its slots were held for
// roundTrip — from the admission of the group's first request to the
// delivery of its replies, less any wait for a free worker. The EWMA
// per-worker service rate, the EWMA round trip (the feedback window) and
// the EWMA group size together re-derive the auto budget on the next
// Admit. A round trip shorter than the service time counts as the
// service time.
func (c *Controller) Observe(n int, service, roundTrip time.Duration) {
	if n < 1 || service <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rate := float64(n) / service.Seconds() / float64(c.workers)
	sec := max(service, roundTrip).Seconds()
	if c.muRate == 0 {
		c.muRate = rate
	} else {
		c.muRate += ewmaAlpha * (rate - c.muRate)
	}
	if c.delaySec == 0 {
		c.delaySec = sec
	} else {
		c.delaySec += ewmaAlpha * (sec - c.delaySec)
	}
	if c.groupSize == 0 {
		c.groupSize = float64(n)
	} else {
		c.groupSize += ewmaAlpha * (float64(n) - c.groupSize)
	}
}

// Budget returns the current total in-flight budget (0 when unbounded).
func (c *Controller) Budget() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetLocked()
}

// displayTenant maps the empty tenant name to its reporting key.
func displayTenant(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Budget:        c.budgetLocked(),
		ServiceRate:   c.muRate,
		FeedbackDelay: time.Duration(c.delaySec * float64(time.Second)),
		PerLane:       make(map[string]Counters, NumLanes),
		PerTenant:     make(map[string]Counters, len(c.tenants)),
	}
	for i, f := range c.inflight {
		s.InFlight += f
		if c.laneCounters[i] != (Counters{}) || f > 0 {
			s.PerLane[LaneName(i)] = c.laneCounters[i]
		}
	}
	for name, ts := range c.tenants {
		if ts.counters != (Counters{}) {
			s.PerTenant[displayTenant(name)] = ts.counters
		}
	}
	return s
}

// WRR is a weighted round-robin lane picker for drain loops: over any
// window of sumW consecutive picks in which a lane stays eligible, that
// lane is picked at least its weight times — so every positively
// weighted lane is starvation-free no matter how the others are loaded.
// Callers hold their own lock; WRR itself is not concurrency-safe.
type WRR struct {
	weights [NumLanes]int
	credit  [NumLanes]int
}

// NewWRR builds a picker. Zero weights mean DefaultLaneWeights.
func NewWRR(weights [NumLanes]int) *WRR {
	if weights == [NumLanes]int{} {
		weights = DefaultLaneWeights
	}
	return &WRR{weights: weights}
}

// Next picks the next lane to drain among the eligible (non-empty)
// lanes, or -1 when none is eligible. Lanes spend credit as they are
// picked; when no eligible lane has credit left, every lane's credit
// refills to its weight (a new round), so a busy high-weight lane can
// never consume the rounds a low-weight lane's credit entitles it to.
func (w *WRR) Next(eligible func(lane int) bool) int {
	for pass := 0; pass < 2; pass++ {
		for lane := 0; lane < NumLanes; lane++ {
			if w.credit[lane] > 0 && w.weights[lane] > 0 && eligible(lane) {
				w.credit[lane]--
				return lane
			}
		}
		// No eligible lane has credit: start a new round and retry once.
		for lane := 0; lane < NumLanes; lane++ {
			w.credit[lane] = w.weights[lane]
		}
	}
	return -1
}
