package sampling

import (
	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// Candidate is the resumable state of one in-progress sampling decision.
// It is the value a pipelined engine parks in a walker's lane between
// pipeline passes: when a rejection sampler turns a candidate down, the
// walker re-enters the Sample stage on a later pass with the previous
// Candidate instead of spinning inline, so the row fetches of other
// walkers overlap the rejection loop.
//
// The zero Candidate means "no proposal yet" and is what the first
// Propose call of a decision receives.
type Candidate struct {
	// Index is the proposed position within Neighbors(Cur), or -1 when no
	// neighbor is selectable (MetaPath schema miss, missing alias row).
	Index int
	// Probes accumulates sampling iterations that touched neighbor-list
	// memory across the proposals of this decision (Result.Probes).
	Probes int
	// Trips counts rejection-loop proposals so far; it is the resume state
	// that bounds the rejection loop across pipeline passes.
	Trips int
	// Final marks a proposal that needs no Accept phase: Index is the
	// decision (single-draw samplers, first-hop shortcuts, full-row
	// reservoir scans).
	Final bool
}

// StagedSampler decomposes Sample into a Propose half and an Accept half
// so a step-interleaved engine can run the decision as pipeline stages and
// re-enter it across passes.
//
// The protocol, starting from the zero Candidate c:
//
//	c = Propose(g, ctx, c, r)
//	if c.Final            -> decision is c.Index
//	else if Accept(c)     -> decision is c.Index
//	else                  -> repeat from Propose with c
//
// Running the protocol to completion on a fresh RNG stream MUST consume
// draws in exactly the order Sample does and produce the same Result —
// byte-identical trajectories across engines depend on it. SampleStaged is
// the reference driver, and every sampler in this package implements
// Sample by calling it.
type StagedSampler interface {
	Sampler
	// Propose draws the next candidate for the decision. prev is the zero
	// Candidate on the first call, or the rejected candidate when the
	// decision re-enters the pipeline.
	Propose(g *graph.CSR, ctx Context, prev Candidate, r *rng.Stream) Candidate
	// Accept decides a non-final candidate: true accepts c.Index, false
	// sends the decision back to Propose. Never called when c.Final.
	Accept(g *graph.CSR, ctx Context, c Candidate, r *rng.Stream) bool
}

// SampleStaged runs the Propose/Accept protocol to completion — the
// reference semantics a staged sampler's Sample must equal.
func SampleStaged(s StagedSampler, g *graph.CSR, ctx Context, r *rng.Stream) Result {
	var c Candidate
	for {
		c = s.Propose(g, ctx, c, r)
		if c.Final || s.Accept(g, ctx, c, r) {
			return Result{Index: c.Index, Probes: c.Probes}
		}
	}
}

// AsStaged returns s as a StagedSampler. All samplers in this package are
// staged; the second return guards external Sampler implementations.
func AsStaged(s Sampler) (StagedSampler, bool) {
	ss, ok := s.(StagedSampler)
	return ss, ok
}

// Propose implements StagedSampler: one uniform draw, always final.
func (Uniform) Propose(g *graph.CSR, ctx Context, _ Candidate, r *rng.Stream) Candidate {
	return Candidate{Index: r.Intn(ctx.degree(g)), Probes: 1, Final: true}
}

// Accept implements StagedSampler (never reached: proposals are final).
func (Uniform) Accept(*graph.CSR, Context, Candidate, *rng.Stream) bool { return true }

// Propose implements StagedSampler: one pointer-free draw from the flat
// alias store (locator word + two arena loads), always final. DrawAt
// returns -1 without consuming randomness for zero-degree vertices,
// exactly as the per-vertex-table representation did for missing tables.
func (s *AliasSampler) Propose(_ *graph.CSR, ctx Context, _ Candidate, r *rng.Stream) Candidate {
	return Candidate{Index: s.DrawAt(ctx.Cur, r), Probes: 1, Final: true}
}

// Accept implements StagedSampler (never reached: proposals are final).
func (s *AliasSampler) Accept(*graph.CSR, Context, Candidate, *rng.Stream) bool { return true }

// Propose implements StagedSampler: draw one uniform candidate per trip.
// The first hop has no previous vertex and is unbiased, hence final.
func (s *Rejection) Propose(g *graph.CSR, ctx Context, prev Candidate, r *rng.Stream) Candidate {
	deg := ctx.degree(g)
	if !ctx.HasPrev {
		return Candidate{Index: r.Intn(deg), Probes: 1, Final: true}
	}
	return Candidate{Index: r.Intn(deg), Probes: prev.Probes + 1, Trips: prev.Trips + 1}
}

// Accept implements StagedSampler: accept with probability bias/maxBias,
// or unconditionally once the trip bound is exhausted (the draw still
// happens first, preserving the stream position of the inline loop). The
// coin is drawn before the adjacency probe, which runs only when the coin
// falls between the stay-near and explore biases.
func (s *Rejection) Accept(g *graph.CSR, ctx Context, c Candidate, r *rng.Stream) bool {
	x := ctx.row(g)[c.Index]
	switch s.Decide(r.Float64(), c.Trips, x == ctx.Prev) {
	case Accepted:
		return true
	case Rejected:
		return false
	}
	return s.Probed(hasEdge(g, ctx.Mem, ctx.Prev, x))
}

// Propose implements StagedSampler: the one-pass weighted reservoir scan
// is a single stage over the row the Row Access stage prefetched, so the
// proposal is always final.
func (s *Reservoir) Propose(g *graph.CSR, ctx Context, _ Candidate, r *rng.Stream) Candidate {
	res := s.scan(g, ctx, r)
	return Candidate{Index: res.Index, Probes: res.Probes, Final: true}
}

// Accept implements StagedSampler (never reached: proposals are final).
func (s *Reservoir) Accept(*graph.CSR, Context, Candidate, *rng.Stream) bool { return true }

// Propose implements StagedSampler: the schema-filtered reservoir scan is
// a single stage over the prefetched row, so the proposal is always final.
func (s *MetaPath) Propose(g *graph.CSR, ctx Context, _ Candidate, r *rng.Stream) Candidate {
	res := s.scan(g, ctx, r)
	return Candidate{Index: res.Index, Probes: res.Probes, Final: true}
}

// Accept implements StagedSampler (never reached: proposals are final).
func (s *MetaPath) Accept(*graph.CSR, Context, Candidate, *rng.Stream) bool { return true }
