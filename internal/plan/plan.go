// Package plan is the execution planner behind the "auto" backend: it
// names the engine and shape that serve a walk workload, caches that
// plan per query class, and lets a circuit breaker demote a faulting
// class to the flat cpu engine and later restore it.
//
// The plan itself is a constant: cpu-pipelined at the pinned cohort
// width, or at DefaultCohort when nothing is pinned. The paper sizes its
// pipeline in closed form (Theorem VI.1, Eq. 1) instead of racing
// configurations at start-up, and on this code the measurements agree:
// a start-up calibration over {cpu, c16, c64, c256} won no benchmark
// workload against the constant and cost 0.1–0.3 s of every service
// start. Sharded execution is never planned either; cpu-sharded is
// reached only by naming it.
package plan

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// Class is the planner's unit of decision: workloads that share a class
// share a plan (and a circuit breaker). The class keys on the algorithm
// and the graph's weightedness, which decide the sampler a session
// builds.
type Class struct {
	Algorithm walk.Algorithm
	Weighted  bool
}

// ClassOf maps a walk configuration on g to its planning class.
func ClassOf(g *graph.CSR, cfg walk.Config) Class {
	return Class{Algorithm: cfg.Algorithm, Weighted: g.Weighted()}
}

// String names the class for status displays ("DeepWalk/weighted").
func (c Class) String() string {
	if c.Weighted {
		return c.Algorithm.String() + "/weighted"
	}
	return c.Algorithm.String() + "/unweighted"
}

// Candidate is one concrete engine shape: a backend name plus the shape
// knobs that backend honors.
type Candidate struct {
	Backend string
	// Cohort is the cpu-pipelined in-flight walker count per worker
	// (0 = backend default); other backends ignore it.
	Cohort int
}

// String renders the candidate the way the bench tables name
// configurations ("cpu-pipelined c64").
func (c Candidate) String() string {
	s := c.Backend
	if c.Cohort > 0 {
		s += fmt.Sprintf(" c%d", c.Cohort)
	}
	return s
}

// Constraints are the caller-pinned knobs the planner must honor: a
// nonzero Cohort is the width the plan runs at, and the memory budget
// passes through to the chosen session unchanged.
type Constraints struct {
	// Cohort, when nonzero, pins the cpu-pipelined cohort width.
	Cohort int
	// MemoryBudgetBytes is the stated memory budget; every plan carries
	// it verbatim.
	MemoryBudgetBytes int64
}

// Plan is a resolved execution decision for one class.
type Plan struct {
	Candidate
	// MemoryBudgetBytes is the memory budget the session must be opened
	// with (see Constraints).
	MemoryBudgetBytes int64
	// Source records where the plan came from: "default" (no cohort
	// pinned), "pinned" (the caller's cohort), "demoted" (the circuit
	// breaker fell back to cpu), or "restored" (the half-open health
	// check reinstated the plan the class had before its demotion).
	Source string
	// Reason is a one-line human-readable justification.
	Reason string
	// Revision counts the class's breaker demotions and restorations;
	// serving layers fold it into their coalescing keys so a plan switch
	// starts a fresh session instead of reusing one the faulting engine
	// may have corrupted.
	Revision int
}

// Fingerprint canonicalizes everything about the plan that changes
// which session must serve it. Serving layers append it to their batch
// keys: requests under different fingerprints never share a session.
func (p Plan) Fingerprint() string {
	return fmt.Sprintf("%s|c%d|m%d|r%d",
		p.Backend, p.Cohort, p.MemoryBudgetBytes, p.Revision)
}

// String renders the plan for -explain-plan output.
func (p Plan) String() string {
	s := p.Candidate.String()
	if p.MemoryBudgetBytes != 0 {
		s += fmt.Sprintf(" budget=%dB", p.MemoryBudgetBytes)
	}
	return s + fmt.Sprintf(" (%s)", p.Source)
}

// DefaultCohort is the cohort width of the default plan; the
// cpu-pipelined backend takes its own default from it (exec.DefaultCohort
// records the sweep behind the choice).
const DefaultCohort = 256

// Options is the planner's former tuning surface.
type Options struct {
	// Deprecated: ignored. The plan is a constant; nothing is calibrated.
	Calibrate bool
}

// Decide returns the plan for cons: the cohort pipeline at the pinned
// width, or at DefaultCohort, carrying the stated memory budget.
func Decide(cons Constraints) Plan {
	p := Plan{
		Candidate:         Candidate{Backend: "cpu-pipelined", Cohort: DefaultCohort},
		MemoryBudgetBytes: cons.MemoryBudgetBytes,
		Source:            "default",
		Reason:            "the cohort pipeline at its default width is never slower than the flat engine",
	}
	if cons.Cohort > 0 {
		p.Cohort = cons.Cohort
		p.Source = "pinned"
		p.Reason = "cohort width pinned by the caller"
	}
	return p
}
