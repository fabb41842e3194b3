// Package plan is the execution planner behind the "auto" backend: it
// decides which concrete engine — and which shape (cohort width, memory
// placement) — should serve a walk workload, instead of leaving every
// knob hand-picked. Sharded execution is never planned: it has not won a
// measurement on flat memory, so cpu-sharded is reached only by naming
// it.
//
// The decision combines three signals, cheapest first:
//
//   - Graph statistics (stats.go): vertex/edge counts, degree skew and
//     hub mass, weightedness, and the versioned-graph overlay dirtiness —
//     all O(V), computed once per graph, reported by Explain, and
//     re-planning every class once the overlay is heavily dirtied.
//   - A calibration micro-bench (calibrate.go): tiny seeded cohort
//     sweeps per candidate configuration, run against a sampled subgraph
//     when the full graph is large, cached per (graph version, class).
//   - Served-query observations (planner.go): the serving layer feeds
//     realized steps/sec back through Observe; when it drifts beyond a
//     factor of the level the plan was adopted at, the class is
//     re-planned and the plan revision advances.
//
// The decision itself (Decide) is a pure function of the constraints
// and the calibration measurements, so it is deterministic and
// unit-testable without running a single probe.
package plan

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// Class is the planner's unit of decision: workloads that share a class
// share a plan. Walk length, seed, and termination parameters (PPR's α)
// shift absolute throughput but not the relative ordering of engines,
// so the class keys on the algorithm and the sampler-relevant graph
// weightedness only.
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

// Candidate is one concrete engine shape the planner can choose or
// probe: a backend name plus the shape knobs that backend honors.
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
// nonzero Cohort restricts the candidate space to that width, and the
// memory budget passes through to the chosen session unchanged — the
// planner never converts a stated budget into anything looser.
type Constraints struct {
	// Cohort, when nonzero, pins the cpu-pipelined cohort width.
	Cohort int
	// MemoryBudgetBytes is the stated memory budget. Every plan carries
	// it verbatim; the planner scales it only for probe runs on sampled
	// subgraphs, never for the plan itself.
	MemoryBudgetBytes int64
}

// Plan is a resolved execution decision for one class.
type Plan struct {
	Candidate
	// MemoryBudgetBytes is the memory budget the session must be opened
	// with (see Constraints).
	MemoryBudgetBytes int64
	// PredictedStepsPerSec is the calibration measurement the choice was
	// based on; 0 when the plan came from statistics alone.
	PredictedStepsPerSec float64
	// Source records how the decision was made: "stats" (heuristics
	// only), "calibrated" (micro-bench), "replanned" (drift-triggered
	// recalibration), "demoted" (circuit breaker fell back to cpu), or
	// "restored" (half-open health probe reinstated the prior plan).
	Source string
	// Reason is a one-line human-readable justification.
	Reason string
	// Revision counts re-plans of this class; serving layers fold it
	// into their coalescing keys so a plan switch starts a fresh session
	// instead of tearing an in-flight one.
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
	if p.PredictedStepsPerSec > 0 {
		s += fmt.Sprintf(" (predicted %.3g steps/s, %s)", p.PredictedStepsPerSec, p.Source)
	} else {
		s += fmt.Sprintf(" (%s)", p.Source)
	}
	return s
}

// Measurement is one calibration probe outcome.
type Measurement struct {
	Candidate   Candidate
	StepsPerSec float64
	// Err, when nonempty, marks a candidate that failed to open or run;
	// Decide skips it.
	Err string
}

// DefaultCohort is the cohort width of the stats-only plan and the widest
// calibrated candidate; the cpu-pipelined backend takes its own default
// from it (exec.DefaultCohort records the sweep behind the choice).
const DefaultCohort = 256

// Candidates enumerates the engine shapes worth considering under cons,
// in deterministic order: the flat engine and the cohort pipeline at a
// few widths (one, when cons pins it). The list is deliberately small —
// calibration cost is candidates × probe runtime — and holds no sharded
// shape: on RMAT-20 with two procs the sharded engine ran 4–5 Mstep/s
// against 29–41 unsharded.
func Candidates(cons Constraints) []Candidate {
	cohorts := []int{16, 64, DefaultCohort}
	if cons.Cohort > 0 {
		cohorts = []int{cons.Cohort}
	}
	out := []Candidate{{Backend: "cpu"}}
	for _, c := range cohorts {
		out = append(out, Candidate{Backend: "cpu-pipelined", Cohort: c})
	}
	return out
}

// Decide is the pure decision function: given the constraints and
// whatever calibration measurements exist (possibly none), it returns
// the plan. With measurements it picks the fastest surviving candidate
// (first wins ties, and the candidate order is deterministic, so so is
// the decision); without, it falls back to the heuristic the bench
// record supports: the cohort pipeline, which never loses to the flat
// engine.
func Decide(cons Constraints, ms []Measurement) Plan {
	p := Plan{MemoryBudgetBytes: cons.MemoryBudgetBytes}
	var best *Measurement
	for i := range ms {
		m := &ms[i]
		if m.Err != "" || m.StepsPerSec <= 0 {
			continue
		}
		if best == nil || m.StepsPerSec > best.StepsPerSec {
			best = m
		}
	}
	if best != nil {
		p.Candidate = best.Candidate
		p.PredictedStepsPerSec = best.StepsPerSec
		p.Source = "calibrated"
		p.Reason = fmt.Sprintf("fastest of %d probed candidates", len(ms))
		return p
	}
	// Stats-only fallback.
	cohort := DefaultCohort
	if cons.Cohort > 0 {
		cohort = cons.Cohort
	}
	p.Candidate = Candidate{Backend: "cpu-pipelined", Cohort: cohort}
	p.Source = "stats"
	p.Reason = "stats: cohort pipeline is never slower than the flat engine"
	return p
}
