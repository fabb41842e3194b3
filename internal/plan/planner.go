package plan

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// Planner binds the decision machinery to one graph: it computes the
// statistics once, calibrates lazily per class (first request of a
// class pays the micro-bench; the result is cached), and folds served
// observations back in. All methods are safe for concurrent use.
type Planner struct {
	g      *graph.CSR
	cons   Constraints
	opts   Options
	runner ProbeRunner

	mu      sync.Mutex
	stats   GraphStats
	statsAt uint64 // epoch the stats were computed under
	classes map[Class]*classState
}

// classState is one class's resolved plan plus its observation stream.
type classState struct {
	plan     Plan
	measured []Measurement
	calErr   string // why calibration fell back to stats, if it did
	// Drift tracking, one level per log2(batch queries) bucket: a batch's
	// steps/sec depends on its size (fill/drain and per-call overhead
	// amortize over it), so a 64-query batch and a coalesced 4096-query
	// batch at their own steady speeds are not drift. last is the bucket
	// observed most recently (what Status reports).
	levels [driftBuckets]driftLevel
	last   int
	recals int
	stale  bool // next PlanFor must re-plan
	// Breaker demotion: while demoted the class serves the known-good
	// cpu plan and prev holds the pre-demotion plan for Restore's
	// half-open health probe. Demoted classes neither observe drift nor
	// recalibrate — the breaker, not the drift detector, owns their
	// lifecycle until restored.
	demoted bool
	prev    Plan
}

// driftBuckets covers batch sizes up to 2^31 queries.
const driftBuckets = 32

// driftLevel is the served-throughput record of one batch-size bucket:
// the EWMA of served steps/sec, the level at adoption time (set once
// MinObservations settle it), the observation count, and how many
// observations in a row left the EWMA beyond DriftFactor of the adopted
// level.
type driftLevel struct {
	ewma    float64
	adopted float64
	obs     int64
	beyond  int
}

// resetDrift forgets every observation (a new plan starts a new record).
func (cs *classState) resetDrift() {
	cs.levels = [driftBuckets]driftLevel{}
	cs.last = 0
}

// observations totals the class's observed batches across buckets.
func (cs *classState) observations() int64 {
	var n int64
	for i := range cs.levels {
		n += cs.levels[i].obs
	}
	return n
}

// ClassStatus is one class's externally visible planning state (see
// Planner.Status and the Service's PlanStatus).
type ClassStatus struct {
	Class                Class
	Plan                 Plan
	PredictedStepsPerSec float64
	ObservedStepsPerSec  float64
	Observations         int64
	Recalibrations       int
	CalibrationError     string
	// Demoted reports the class is serving the breaker's cpu fallback.
	Demoted bool
}

// New builds a planner for g. runner may be nil when Options.Calibrate
// is false (stats-only planning never probes).
func New(g *graph.CSR, cons Constraints, opts Options, runner ProbeRunner) *Planner {
	return &Planner{
		g:       g,
		cons:    cons,
		opts:    opts.withDefaults(),
		runner:  runner,
		stats:   ComputeStats(g, nil),
		classes: map[Class]*classState{},
	}
}

// Stats returns the statistics the planner decides from.
func (p *Planner) Stats() GraphStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// RefreshStats recomputes the overlay-dependent statistics for a new
// serving view (mutations advanced the epoch). Plans are not
// invalidated here — the serving layer's epoch already re-keys sessions
// — but a heavily dirtied overlay shifts per-row costs, so the refresh
// marks every class stale once the dirty fraction crosses 10%, letting
// the next request of each class re-plan against current reality.
func (p *Planner) RefreshStats(snap *graph.Snapshot) {
	st := ComputeStats(p.g, snap)
	p.mu.Lock()
	defer p.mu.Unlock()
	crossed := st.OverlayDirtyFraction >= 0.10 && p.stats.OverlayDirtyFraction < 0.10
	p.stats = st
	p.statsAt = st.Epoch
	if crossed {
		for _, cs := range p.classes {
			cs.stale = true
		}
	}
}

// probeGraph builds the calibration graph. It is sampled afresh for each
// sweep and dropped with it: an O(V) pass is small beside the sweep's
// probes, while a cached sample (24 MB for RMAT-20) would stay live for
// the planner's lifetime to serve re-plans that drift tracking makes
// rare — and every live byte costs two at the collector's heap goal.
func (p *Planner) probeGraph() *graph.CSR {
	if p.opts.SubgraphEdges < 0 {
		return p.g
	}
	return SampleSubgraph(p.g, p.opts.SubgraphEdges)
}

// PlanFor resolves the plan serving cfg's class, calibrating on first
// use (and again after drift or overlay staleness marked the class).
// The returned plan is a value: later re-plans produce new revisions,
// they never mutate a plan a caller already holds.
func (p *Planner) PlanFor(cfg walk.Config) (Plan, error) {
	if err := cfg.Validate(p.g); err != nil {
		return Plan{}, err
	}
	cls := ClassOf(p.g, cfg)
	p.mu.Lock()
	cs := p.classes[cls]
	if cs != nil && (cs.demoted || !cs.stale) {
		pl := cs.plan
		p.mu.Unlock()
		return pl, nil
	}
	rev := 0
	source := ""
	if cs != nil {
		rev = cs.plan.Revision + 1
		source = "replanned"
	}
	p.mu.Unlock()

	// Calibration runs outside the planner lock: probes take real time
	// and other classes must keep planning meanwhile. The worst case is
	// two goroutines calibrating the same class concurrently; both
	// produce the same deterministic workload and the second result
	// simply overwrites the first.
	var ms []Measurement
	var calErr string
	if p.opts.Calibrate && p.runner != nil {
		var err error
		ms, err = calibrate(p.probeGraph(), p.g.NumEdges(), cfg, p.cons, p.opts, p.runner)
		if err != nil {
			calErr = err.Error()
			ms = nil
		}
	}
	pl := Decide(p.cons, ms)
	pl.Revision = rev
	if source != "" && pl.Source == "calibrated" {
		pl.Source = source
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	cs = p.classes[cls]
	if cs == nil {
		cs = &classState{}
		p.classes[cls] = cs
	}
	cs.plan = pl
	cs.measured = ms
	cs.calErr = calErr
	cs.stale = false
	cs.resetDrift()
	return pl, nil
}

// Observe feeds one served batch — its query count and realized
// steps/sec — back into the class. Levels are kept per log2(queries)
// bucket, so drift means "batches of this size changed speed", never
// "the batch size changed", and only batches at least as large as the
// calibration probes (Options.Queries) are judged: a request-sized
// batch runs for a fraction of a millisecond, so a scheduler hiccup
// doubles its time, and a re-plan it sets off under load stalls requests
// behind a sweep whose probes then compete with the traffic. Once
// MinObservations batches have settled a
// bucket's EWMA, an EWMA that stays beyond DriftFactor of its
// adoption-time level (in either direction) for MinObservations
// consecutive batches marks the class stale — a few slow batches behind
// an epoch switch or a collection are not drift. The next PlanFor then
// recalibrates and advances the plan revision, so new sessions pick up
// the new reality while sessions already serving the old plan finish
// undisturbed.
func (p *Planner) Observe(cfg walk.Config, queries int, stepsPerSec float64) {
	if queries <= 0 || stepsPerSec <= 0 {
		return
	}
	cls := ClassOf(p.g, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.classes[cls]
	if cs == nil || cs.stale || cs.demoted {
		return
	}
	cs.last = min(bits.Len(uint(queries))-1, driftBuckets-1)
	lv := &cs.levels[cs.last]
	if lv.ewma == 0 {
		lv.ewma = stepsPerSec
	} else {
		lv.ewma = 0.3*stepsPerSec + 0.7*lv.ewma
	}
	lv.obs++
	if queries < p.opts.Queries {
		// Smaller than the probes the plan was chosen on: the batch times
		// the dispatch overhead, the scheduler and whatever else shared
		// the machine for its fraction of a millisecond, not the plan. It
		// counts towards what Status reports and towards nothing else.
		return
	}
	if lv.adopted == 0 {
		if lv.obs >= int64(p.opts.MinObservations) {
			lv.adopted = lv.ewma
		}
		return
	}
	f := p.opts.DriftFactor
	if lv.ewma > lv.adopted*f || lv.ewma < lv.adopted/f {
		lv.beyond++
	} else {
		lv.beyond = 0
	}
	if lv.beyond >= p.opts.MinObservations {
		cs.stale = true
		cs.recals++
	}
}

// Demote switches cfg's class to the known-good flat cpu backend after
// its circuit breaker opened, stashing the current plan for Restore.
// The demoted plan keeps the constraint memory budget and advances the
// revision — Revision feeds the plan fingerprint, so serving layers
// re-coalesce onto fresh sessions instead of reusing ones the faulting
// backend may have corrupted. Demoting an already-demoted class is a
// no-op returning the current plan.
func (p *Planner) Demote(cfg walk.Config, reason string) (Plan, bool) {
	cls := ClassOf(p.g, cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.classes[cls]
	if cs == nil {
		cs = &classState{}
		p.classes[cls] = cs
	}
	if cs.demoted {
		return cs.plan, false
	}
	pl := Plan{
		Candidate:         Candidate{Backend: "cpu"},
		MemoryBudgetBytes: p.cons.MemoryBudgetBytes,
		Source:            "demoted",
		Reason:            reason,
		Revision:          cs.plan.Revision + 1,
	}
	cs.prev = cs.plan
	cs.demoted = true
	cs.stale = false
	cs.plan = pl
	cs.resetDrift()
	return pl, true
}

// Restore attempts to lift cfg's class out of demotion (the breaker
// half-opened): it health-probes the stashed pre-demotion candidate —
// one contained probe batch through the same runner calibration uses,
// so a still-faulting backend fails here instead of on served traffic —
// and on success reinstates that plan at a fresh revision. It returns
// false (class stays demoted) when the probe fails; the caller reopens
// the breaker. A planner without a probe runner restores optimistically:
// the breaker re-demotes on the next fault.
func (p *Planner) Restore(cfg walk.Config) (Plan, bool) {
	cls := ClassOf(p.g, cfg)
	p.mu.Lock()
	cs := p.classes[cls]
	if cs == nil || !cs.demoted {
		p.mu.Unlock()
		return Plan{}, false
	}
	prev := cs.prev
	runner := p.runner
	p.mu.Unlock()

	if runner != nil {
		if err := p.healthProbe(p.probeGraph(), prev.Candidate, cfg); err != nil {
			return Plan{}, false
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	cs = p.classes[cls]
	if cs == nil || !cs.demoted {
		return Plan{}, false
	}
	pl := prev
	pl.Source = "restored"
	pl.Reason = "half-open health probe succeeded"
	pl.Revision = cs.plan.Revision + 1
	cs.plan = pl
	cs.demoted = false
	cs.stale = false
	cs.resetDrift()
	return pl, true
}

// healthProbe opens cand once on the probe graph and runs a single
// probe batch, reporting any open/run error. The deliberate contrast
// with full recalibration: a restore must bring back the plan the class
// had, not re-run the candidate tournament.
func (p *Planner) healthProbe(probeG *graph.CSR, cand Candidate, cfg walk.Config) error {
	pcfg := ProbeConfig(cfg, p.opts)
	qs, err := walk.RandomQueries(probeG, pcfg, p.opts.Queries, p.opts.Seed)
	if err != nil {
		return err
	}
	budget := p.cons.MemoryBudgetBytes
	if budget > 0 {
		if pe, fe := probeG.NumEdges(), p.g.NumEdges(); pe < fe && fe > 0 {
			budget = budget * pe / fe
			if budget < 1<<16 {
				budget = 1 << 16
			}
		}
	}
	probe, err := p.runner(probeG, cand, pcfg, qs, budget)
	if err != nil {
		return err
	}
	defer probe.Close()
	_, err = probe.Step()
	return err
}

// Status snapshots every class's planning state, sorted by class name.
func (p *Planner) Status() []ClassStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ClassStatus, 0, len(p.classes))
	for cls, cs := range p.classes {
		out = append(out, ClassStatus{
			Class:                cls,
			Plan:                 cs.plan,
			PredictedStepsPerSec: cs.plan.PredictedStepsPerSec,
			ObservedStepsPerSec:  cs.levels[cs.last].ewma,
			Observations:         cs.observations(),
			Recalibrations:       cs.recals,
			CalibrationError:     cs.calErr,
			Demoted:              cs.demoted,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class.String() < out[j].Class.String() })
	return out
}

// Explain renders the full decision record for cfg's class — the
// statistics, every probed candidate, and the chosen plan — resolving
// the plan first if the class has none yet.
func (p *Planner) Explain(cfg walk.Config) (string, error) {
	pl, err := p.PlanFor(cfg)
	if err != nil {
		return "", err
	}
	cls := ClassOf(p.g, cfg)
	p.mu.Lock()
	st := p.stats
	cs := p.classes[cls]
	var ms []Measurement
	var calErr string
	var obs float64
	var nobs int64
	if cs != nil {
		ms, calErr, obs, nobs = cs.measured, cs.calErr, cs.levels[cs.last].ewma, cs.observations()
	}
	p.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "class %s\n", cls)
	fmt.Fprintf(&b, "graph: %d vertices, %d edges, avg degree %.1f, max %d, hub mass %.0f%%, dirty %.1f%%\n",
		st.Vertices, st.Edges, st.AvgDegree, st.MaxDegree, 100*st.HubMass, 100*st.OverlayDirtyFraction)
	if calErr != "" {
		fmt.Fprintf(&b, "calibration unavailable: %s\n", calErr)
	}
	for _, m := range ms {
		if m.Err != "" {
			fmt.Fprintf(&b, "  probe %-24s failed: %s\n", m.Candidate, m.Err)
			continue
		}
		mark := " "
		if m.Candidate == pl.Candidate {
			mark = "*"
		}
		fmt.Fprintf(&b, " %s probe %-24s %12.4g steps/s\n", mark, m.Candidate, m.StepsPerSec)
	}
	fmt.Fprintf(&b, "plan: %s\n", pl)
	if nobs > 0 {
		fmt.Fprintf(&b, "observed: %.4g steps/s over %d batches\n", obs, nobs)
	}
	return b.String(), nil
}
