package exec

import (
	"context"
	"runtime"
	"sync"
	"time"

	"ridgewalker/internal/fault"
	"ridgewalker/internal/graph"
	"ridgewalker/internal/plan"
	"ridgewalker/internal/walk"
)

// autoBackend is the planner's meta-backend: Open resolves the constant
// execution plan (plan.Decide) and delegates to the chosen CPU-family
// engine with the resolved shape. The session it returns is the chosen
// engine's session wrapped with plan reporting, so trajectories are
// byte-identical to opening the chosen backend by hand with the same
// knobs.
type autoBackend struct{}

func (autoBackend) Name() string { return "auto" }

func (autoBackend) Description() string {
	return "planned CPU engine: cpu-pipelined at the pinned -cohort or the default 256 (see -explain-plan)"
}

// Capabilities are the cpu family's. Both engines the planner chooses
// (cpu-pipelined, and cpu after a breaker demotion) serialize their
// runs, so auto declares no ConcurrentRuns.
func (autoBackend) Capabilities() Capabilities { return cpuCaps }

func (autoBackend) Open(g *graph.CSR, cfg Config) (Session, error) {
	if cfg.Shards != 0 {
		return nil, errShardsPin("auto", cfg.Shards)
	}
	if err := cfg.Walk.Validate(g); err != nil {
		return nil, err
	}
	return openPlanned(g, cfg, plan.Decide(constraints(cfg)))
}

// constraints are cfg's pinned knobs as planning constraints.
func constraints(cfg Config) plan.Constraints {
	return plan.Constraints{Cohort: cfg.Cohort, MemoryBudgetBytes: cfg.MemoryBudgetBytes}
}

// healthQueries is the batch size of a plan restore's health check.
const healthQueries = 16

// NewPlanner builds a plan.Planner for g from an exec configuration:
// the config's pinned knobs become planning constraints, and a breaker
// restore's health check opens the candidate through this registry's own
// Open path on g — so it borrows samplers from the sampling registry
// exactly like a served session — and runs one small batch under the
// class's walk configuration. The check is contained: a panic in the
// candidate's open or run fails the restore instead of unwinding into
// the caller.
func NewPlanner(g *graph.CSR, cfg Config) *plan.Planner {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return plan.New(g, constraints(cfg), func(cand plan.Candidate, wcfg walk.Config) error {
		qs, err := walk.RandomQueries(g, wcfg, healthQueries, wcfg.Seed)
		if err != nil {
			return err
		}
		return fault.Contain("plan-restore", func() error {
			ses, err := Open(cand.Backend, g, Config{
				Walk:              wcfg,
				Workers:           workers,
				Cohort:            cand.Cohort,
				MemoryBudgetBytes: cfg.MemoryBudgetBytes,
				DiscardPaths:      true,
			})
			if err != nil {
				return err
			}
			defer ses.Close()
			_, err = ses.Run(context.Background(), Batch{Queries: qs})
			return err
		})
	})
}

// openPlanned opens pl's chosen engine with cfg's pass-through fields
// and the plan's resolved shape, wrapping the session for reporting.
func openPlanned(g *graph.CSR, cfg Config, pl plan.Plan) (Session, error) {
	inner := cfg
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
		Backend:             s.plan.Backend,
		Cohort:              s.plan.Cohort,
		MemoryBudgetBytes:   s.plan.MemoryBudgetBytes,
		Source:              s.plan.Source,
		Reason:              s.plan.Reason,
		Revision:            s.plan.Revision,
		ObservedStepsPerSec: observed,
		Runs:                runs,
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

func init() {
	Register(autoBackend{})
}
