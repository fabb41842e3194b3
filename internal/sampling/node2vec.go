package sampling

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// node2vecBias returns the second-order bias node2vec applies to candidate
// next-vertex v given the previous vertex prev:
//
//	1/p if v == prev           (return)
//	1   if prev has edge to v  (stay near)
//	1/q otherwise              (explore)
//
// The adjacency probe routes through the engine's staged memory view:
// a snapshot overlay first when prev's row is dirty for the serving
// epoch (its base copy is stale), then the tiered store's view when the
// engine runs over one (prev's row may live compressed in the cold
// arena; the view caches its decode), and the CSR otherwise.
func node2vecBias(g *graph.CSR, mem *RowView, prev, v graph.VertexID, p, q float64) float64 {
	switch {
	case v == prev:
		return 1 / p
	case hasEdge(g, mem, prev, v):
		return 1
	default:
		return 1 / q
	}
}

// hasEdge is the overlay- and tier-routed adjacency probe behind
// node2vecBias.
func hasEdge(g *graph.CSR, mem *RowView, u, v graph.VertexID) bool {
	if mem != nil {
		if mem.Snap != nil && mem.Snap.Dirty(u) {
			return mem.Snap.HasEdge(u, v)
		}
		if mem.Tier != nil {
			return mem.Tier.HasEdge(u, v)
		}
	}
	return g.HasEdge(u, v)
}

// Rejection implements node2vec's neighbor selection on unweighted graphs by
// rejection sampling (the scheme gSampler and the paper use): draw a
// candidate uniformly, accept with probability bias/maxBias. Each loop trip
// costs one neighbor-list probe plus an adjacency check against prev.
type Rejection struct {
	P, Q float64
	// maxBias = max(1/p, 1, 1/q), the acceptance envelope.
	maxBias float64
	// ret = 1/p is the return bias. low and high are min(1, 1/q) and
	// max(1, 1/q): a coin below low accepts and one at or above high
	// rejects whatever prev's adjacency, and between them the trip accepts
	// iff HasEdge(prev, candidate) == near (the stay-near bias 1 is the
	// larger one).
	ret, low, high float64
	near           bool
	// MaxTrips bounds the rejection loop; on exhaustion the last candidate
	// is accepted (bias toward exact sampling is negligible for sane p,q and
	// the bound keeps hardware service time finite, as real designs do).
	MaxTrips int
	// fences indexes the graph Spec.Build built the sampler over, for the
	// pipelined engine's Prev Access probe; nil for NewRejection.
	fences *graph.Fences
}

// NewRejection validates p and q and returns the sampler.
func NewRejection(p, q float64) (*Rejection, error) {
	// The negated predicate also rejects NaN bias factors.
	if !(p > 0) || !(q > 0) {
		return nil, fmt.Errorf("sampling: node2vec p=%v q=%v must be > 0", p, q)
	}
	return &Rejection{
		P: p, Q: q,
		maxBias:  max(1/p, 1, 1/q),
		ret:      1 / p,
		low:      min(1, 1/q),
		high:     max(1, 1/q),
		near:     1/q < 1,
		MaxTrips: 64,
	}, nil
}

// Verdict is a rejection trip's outcome as far as its coin decides it.
type Verdict uint8

const (
	// Rejected sends the decision back to Propose; Accepted takes the
	// candidate.
	Rejected Verdict = iota
	Accepted
	// NeedsProbe: the coin lies between the stay-near bias 1 and the
	// explore bias 1/q, so only HasEdge(prev, candidate) decides; Probed
	// finishes the trip.
	NeedsProbe
)

// Decide is the acceptance rule of one rejection trip, the one copy that
// Accept and the pipelined engine's Sample pass share. coin is the trip's
// Float64 draw, taken whatever the bias (so drawing it before the probe
// keeps the stream order); trips is the trip count so far including this
// one; back reports whether the candidate is prev. It equals the verdict
// of `coin·maxBias < node2vecBias(…) || trips >= MaxTrips`, and names a
// probe only when the coin cannot tell.
func (s *Rejection) Decide(coin float64, trips int, back bool) Verdict {
	u := coin * s.maxBias
	switch {
	case trips >= s.MaxTrips:
		return Accepted
	case back:
		if u < s.ret {
			return Accepted
		}
		return Rejected
	case u < s.low:
		return Accepted
	case !(u < s.high): // also rejects NaN, as the comparison it replaces does
		return Rejected
	}
	return NeedsProbe
}

// Probed finishes a NeedsProbe trip from the adjacency probe's answer.
func (s *Rejection) Probed(edge bool) bool { return edge == s.near }

// Fences returns the fence index over the graph the sampler was built
// for by Spec.Build, or nil for a sampler from NewRejection.
func (s *Rejection) Fences() *graph.Fences { return s.fences }

// Sample implements Sampler by running the Propose/Accept protocol to
// completion: draw a candidate uniformly, accept with probability
// bias/maxBias, repeat.
func (s *Rejection) Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	return SampleStaged(s, g, ctx, r)
}

// Kind implements Sampler.
func (s *Rejection) Kind() Kind { return KindRejection }

// RPEntryBits implements Sampler.
func (s *Rejection) RPEntryBits() int { return 64 }

// Reservoir implements weighted second-order selection by a one-pass
// weighted reservoir over the neighbor list — the scheme LightRW uses for
// weighted node2vec and MetaPath. Cost is one probe per neighbor.
type Reservoir struct {
	// P, Q are node2vec bias factors; set both to 1 for plain weighted
	// selection.
	P, Q float64
}

// NewReservoir validates p and q and returns the sampler.
func NewReservoir(p, q float64) (*Reservoir, error) {
	// The negated predicate also rejects NaN bias factors.
	if !(p > 0) || !(q > 0) {
		return nil, fmt.Errorf("sampling: node2vec p=%v q=%v must be > 0", p, q)
	}
	return &Reservoir{P: p, Q: q}, nil
}

// Sample implements Sampler.
func (s *Reservoir) Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	return SampleStaged(s, g, ctx, r)
}

// scan is the one-pass weighted reservoir over the neighbor list — the
// single (non-resumable) stage behind Propose.
func (s *Reservoir) scan(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	ns := ctx.row(g)
	ws := ctx.rowWeights(g)
	chosen := -1
	cum := 0.0
	for i, v := range ns {
		w := 1.0
		if ws != nil {
			w = float64(ws[i])
		}
		if ctx.HasPrev {
			w *= node2vecBias(g, ctx.Mem, ctx.Prev, v, s.P, s.Q)
		}
		cum += w
		// A-Chao weighted reservoir of size 1: replace the incumbent with
		// probability w/cum; the final winner is exactly w-proportional.
		if r.Float64()*cum < w {
			chosen = i
		}
	}
	return Result{Index: chosen, Probes: len(ns)}
}

// Kind implements Sampler.
func (s *Reservoir) Kind() Kind { return KindReservoir }

// RPEntryBits implements Sampler.
func (s *Reservoir) RPEntryBits() int { return 128 }

// MetaPath selects the next vertex among neighbors whose label matches the
// walk's schema (metapath2vec), weighted when the graph is weighted. A walk
// terminates early when no neighbor matches — the irregularity Fig. 8d
// exercises.
type MetaPath struct {
	// Schema is the cyclic sequence of vertex types; hop i must land on a
	// vertex labeled Schema[(i+1) % len(Schema)].
	Schema []uint8
}

// NewMetaPath validates the schema.
func NewMetaPath(schema []uint8) (*MetaPath, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("sampling: empty metapath schema")
	}
	return &MetaPath{Schema: schema}, nil
}

// Sample implements Sampler. Index is -1 when no neighbor matches the
// required type.
func (s *MetaPath) Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	return SampleStaged(s, g, ctx, r)
}

// scan is the schema-filtered weighted reservoir over the neighbor list —
// the single (non-resumable) stage behind Propose.
func (s *MetaPath) scan(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	want := s.Schema[(ctx.Step+1)%len(s.Schema)]
	ns := ctx.row(g)
	ws := ctx.rowWeights(g)
	chosen := -1
	cum := 0.0
	for i, v := range ns {
		if g.Label(v) != want {
			continue
		}
		w := 1.0
		if ws != nil {
			w = float64(ws[i])
		}
		cum += w
		if r.Float64()*cum < w {
			chosen = i
		}
	}
	return Result{Index: chosen, Probes: len(ns)}
}

// Kind implements Sampler.
func (s *MetaPath) Kind() Kind { return KindMetaPath }

// RPEntryBits implements Sampler.
func (s *MetaPath) RPEntryBits() int { return 128 }
