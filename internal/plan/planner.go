package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/walk"
)

// Planner binds the plan to one graph: it caches one plan per class and
// carries the circuit breaker's demote/restore lifecycle. All methods
// are safe for concurrent use.
type Planner struct {
	g      *graph.CSR
	cons   Constraints
	health func(Candidate, walk.Config) error

	mu      sync.Mutex
	classes map[Class]*classState
}

// classState is one class's resolved plan. While demoted the class
// serves the known-good cpu plan and prev holds the pre-demotion plan
// for Restore's health check.
type classState struct {
	plan    Plan
	demoted bool
	prev    Plan
}

// ClassStatus is one class's externally visible planning state (see
// Planner.Status and the Service's PlanStatus).
type ClassStatus struct {
	Class Class
	Plan  Plan
	// Deprecated: always 0. Plans are no longer re-calibrated.
	Recalibrations int
	// Demoted reports the class is serving the breaker's cpu fallback.
	Demoted bool
}

// New builds a planner for g. health is Restore's half-open check: it
// runs one small batch of the candidate under the class's walk
// configuration on g and reports any open or run error.
func New(g *graph.CSR, cons Constraints, health func(Candidate, walk.Config) error) *Planner {
	return &Planner{
		g:       g,
		cons:    cons,
		health:  health,
		classes: map[Class]*classState{},
	}
}

// PlanFor returns the plan serving cfg's class. The returned plan is a
// value: a later demotion or restore produces a new revision, never
// mutating a plan a caller already holds.
func (p *Planner) PlanFor(cfg walk.Config) (Plan, error) {
	if err := cfg.Validate(p.g); err != nil {
		return Plan{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stateLocked(ClassOf(p.g, cfg)).plan, nil
}

// stateLocked returns cls's state, creating it at the constant plan on
// first use. Called with p.mu held.
func (p *Planner) stateLocked(cls Class) *classState {
	cs := p.classes[cls]
	if cs == nil {
		cs = &classState{plan: Decide(p.cons)}
		p.classes[cls] = cs
	}
	return cs
}

// Demote switches cfg's class to the known-good flat cpu backend after
// its circuit breaker opened, stashing the current plan for Restore.
// The demoted plan keeps the constraint memory budget and advances the
// revision — Revision feeds the plan fingerprint, so serving layers
// re-coalesce onto fresh sessions instead of reusing ones the faulting
// backend may have corrupted. Demoting an already-demoted class is a
// no-op returning the current plan.
func (p *Planner) Demote(cfg walk.Config, reason string) (Plan, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.stateLocked(ClassOf(p.g, cfg))
	if cs.demoted {
		return cs.plan, false
	}
	cs.prev = cs.plan
	cs.demoted = true
	cs.plan = Plan{
		Candidate:         Candidate{Backend: "cpu"},
		MemoryBudgetBytes: p.cons.MemoryBudgetBytes,
		Source:            "demoted",
		Reason:            reason,
		Revision:          cs.plan.Revision + 1,
	}
	return cs.plan, true
}

// Restore attempts to lift cfg's class out of demotion (the breaker
// half-opened): it runs the health check on the stashed pre-demotion
// candidate, so a still-faulting backend fails here instead of on served
// traffic, and on success reinstates that plan at a fresh revision. It
// returns false (class stays demoted) when the check fails; the caller
// reopens the breaker.
func (p *Planner) Restore(cfg walk.Config) (Plan, bool) {
	cls := ClassOf(p.g, cfg)
	p.mu.Lock()
	cs := p.classes[cls]
	if cs == nil || !cs.demoted {
		p.mu.Unlock()
		return Plan{}, false
	}
	prev := cs.prev
	p.mu.Unlock()

	if err := p.health(prev.Candidate, cfg); err != nil {
		return Plan{}, false
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if !cs.demoted {
		return Plan{}, false
	}
	pl := prev
	pl.Source = "restored"
	pl.Reason = "half-open health check succeeded"
	pl.Revision = cs.plan.Revision + 1
	cs.plan = pl
	cs.demoted = false
	return pl, true
}

// Status snapshots every class's planning state, sorted by class name.
func (p *Planner) Status() []ClassStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ClassStatus, 0, len(p.classes))
	for cls, cs := range p.classes {
		out = append(out, ClassStatus{Class: cls, Plan: cs.plan, Demoted: cs.demoted})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class.String() < out[j].Class.String() })
	return out
}

// Explain renders cfg's class, its plan and the reason for it,
// resolving the plan first if the class has none yet.
func (p *Planner) Explain(cfg walk.Config) (string, error) {
	pl, err := p.PlanFor(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "class %s\n", ClassOf(p.g, cfg))
	fmt.Fprintf(&b, "plan: %s\n", pl)
	fmt.Fprintf(&b, "reason: %s\n", pl.Reason)
	return b.String(), nil
}
