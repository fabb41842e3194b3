package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// autoBackend is the planner-driven meta-backend: Open resolves an
// execution plan — from graph statistics, and from a calibration
// micro-bench when Config.Plan enables it — then delegates to the
// chosen CPU-family engine with the resolved shape. The session it
// returns is the chosen engine's session wrapped with plan reporting,
// so trajectories are byte-identical to opening the chosen backend by
// hand with the same knobs.
type autoBackend struct{}

func (autoBackend) Name() string { return "auto" }

func (autoBackend) Description() string {
	return "planner-selected CPU engine: graph stats + calibration pick backend/cohort (see -explain-plan)"
}

// MergesBatches implements BatchMerger: every engine the planner can
// choose is in the CPU family, whose per-query RNG streams make walks
// independent of batch composition.
func (autoBackend) MergesBatches() bool { return true }

// SupportsMemoryTiering implements MemoryTierer: the budget passes
// through to the chosen engine unchanged (all candidates honor it).
func (autoBackend) SupportsMemoryTiering() bool { return true }

// SupportsVersionedGraphs implements VersionedGrapher: all candidate
// engines serve epoch snapshots.
func (autoBackend) SupportsVersionedGraphs() bool { return true }

// Heartbeats implements Heartbeater: every engine the planner can choose
// is in the CPU family, all of which bump Batch.Heartbeat.
func (autoBackend) Heartbeats() bool { return true }

func (autoBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Shards != 0 {
		return nil, errShardsPin("auto", cfg.Shards)
	}
	if err := cfg.Walk.Validate(g); err != nil {
		return nil, err
	}
	p := NewPlanner(g, cfg)
	pl, err := p.PlanFor(cfg.Walk)
	if err != nil {
		return nil, err
	}
	return openPlanned(g, cfg, pl)
}

// NewPlanner builds a plan.Planner for g from an exec configuration:
// the config's pinned knobs become planning constraints and its Plan
// options tune calibration, with probes executed through this
// registry's own Open path (so every probe session acquires and
// releases its samplers through the sampling registry exactly like a
// served session — a probe can bump a live store's refcount, never
// evict it or leak a reference).
func NewPlanner(g *graph.CSR, cfg Config) *plan.Planner {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cons := plan.Constraints{
		Cohort:            cfg.Cohort,
		MemoryBudgetBytes: cfg.MemoryBudgetBytes,
	}
	opts := plan.Options{}
	if cfg.Plan != nil {
		opts = *cfg.Plan
	}
	return plan.New(g, cons, opts, probeRunner(workers))
}

// probeRunner opens calibration probes through the ordinary backend
// Open path, so a probe session acquires and releases its samplers
// exactly like a served one. The planner holds every candidate's probe
// open for the whole sweep and steps them in interleaved rounds (see
// plan.Probe); Close releases the registry sampler borrow.
func probeRunner(workers int) plan.ProbeRunner {
	return func(g *graph.CSR, cand plan.Candidate, pcfg walk.Config, qs []walk.Query, budget int64) (plan.Probe, error) {
		// Contained like probe steps: an Open-path crash (e.g. a sampler
		// build panic) marks the candidate failed instead of unwinding
		// through the planner into its caller.
		var ses Session
		err := fault.Contain("calibration-probe", func() error {
			var err error
			ses, err = Open(cand.Backend, g, Config{
				Walk:              pcfg,
				Workers:           workers,
				Cohort:            cand.Cohort,
				MemoryBudgetBytes: budget,
				DiscardPaths:      true,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		return &execProbe{cand: cand, ses: ses, batch: Batch{Queries: qs}}, nil
	}
}

// execProbe adapts a backend session to the planner's probe handle: one
// timed run of the probe batch per Step.
type execProbe struct {
	cand  plan.Candidate
	ses   Session
	batch Batch
}

func (p *execProbe) Step() (float64, error) {
	if err := fault.CheckTag(fault.CalibrationProbe, p.cand.Backend); err != nil {
		return 0, err
	}
	// Probe runs are contained like served batches: a panicking candidate
	// scores as a failed measurement (Decide skips it) instead of taking
	// down the planner's caller.
	var sps float64
	err := fault.Contain("calibration-probe", func() error {
		start := time.Now()
		res, err := p.ses.Run(context.Background(), p.batch)
		if err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		if el <= 0 || res.Steps == 0 {
			return fmt.Errorf("exec: probe %s took no steps", p.cand)
		}
		sps = float64(res.Steps) / el
		return nil
	})
	if err != nil {
		return 0, err
	}
	return sps, nil
}

func (p *execProbe) Close() error { return p.ses.Close() }

// openPlanned opens pl's chosen engine with cfg's pass-through fields
// and the plan's resolved shape, wrapping the session for reporting.
func openPlanned(g *graph.CSR, cfg Config, pl plan.Plan) (Session, error) {
	inner := cfg
	inner.Plan = nil
	inner.Cohort = pl.Cohort
	inner.MemoryBudgetBytes = pl.MemoryBudgetBytes
	ses, err := Open(pl.Backend, g, inner)
	if err != nil {
		return nil, err
	}
	return &autoSession{inner: ses, plan: pl}, nil
}

// autoSession wraps the chosen engine's session with plan reporting and
// observed-throughput tracking. Run and Stream delegate unchanged —
// the wrapper adds timing around the call, never inside it — so output
// is byte-identical to the chosen backend's.
type autoSession struct {
	inner Session
	plan  plan.Plan

	mu       sync.Mutex
	observed float64
	runs     int64
}

func (s *autoSession) observe(steps int64, elapsed float64) {
	if steps == 0 || elapsed <= 0 {
		return
	}
	sps := float64(steps) / elapsed
	s.mu.Lock()
	if s.observed == 0 {
		s.observed = sps
	} else {
		s.observed = 0.3*sps + 0.7*s.observed
	}
	s.runs++
	s.mu.Unlock()
}

// Plan returns the resolved plan the session serves.
func (s *autoSession) Plan() plan.Plan { return s.plan }

// PlanReport implements PlanReporter.
func (s *autoSession) PlanReport() *PlanReport {
	s.mu.Lock()
	observed, runs := s.observed, s.runs
	s.mu.Unlock()
	return &PlanReport{
		Backend:              s.plan.Backend,
		Cohort:               s.plan.Cohort,
		MemoryBudgetBytes:    s.plan.MemoryBudgetBytes,
		Source:               s.plan.Source,
		Reason:               s.plan.Reason,
		Revision:             s.plan.Revision,
		PredictedStepsPerSec: s.plan.PredictedStepsPerSec,
		ObservedStepsPerSec:  observed,
		Runs:                 runs,
	}
}

func (s *autoSession) Run(ctx context.Context, batch Batch) (*BatchResult, error) {
	start := time.Now()
	res, err := s.inner.Run(ctx, batch)
	if err != nil {
		return nil, err
	}
	s.observe(res.Steps, time.Since(start).Seconds())
	res.Plan = s.PlanReport()
	return res, nil
}

func (s *autoSession) Stream(ctx context.Context, batch Batch, fn func(WalkOutput) error) error {
	start := time.Now()
	var steps int64
	err := s.inner.Stream(ctx, batch, func(w WalkOutput) error {
		steps += w.Steps
		return fn(w)
	})
	if err != nil {
		return err
	}
	s.observe(steps, time.Since(start).Seconds())
	return nil
}

func (s *autoSession) Close() error { return s.inner.Close() }

// SamplerBytes implements SamplerSizer by delegation.
func (s *autoSession) SamplerBytes() int64 {
	if sz, ok := s.inner.(SamplerSizer); ok {
		return sz.SamplerBytes()
	}
	return 0
}

// MemoryReport delegates the chosen session's tiered-memory accounting.
func (s *autoSession) MemoryReport() *MemoryReport {
	if mr, ok := s.inner.(interface{ MemoryReport() *MemoryReport }); ok {
		return mr.MemoryReport()
	}
	return nil
}

func init() {
	Register(autoBackend{})
}
