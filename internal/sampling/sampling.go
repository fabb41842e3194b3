// Package sampling implements the neighbor-sampling algorithms RidgeWalker
// supports (paper Table I):
//
//	GRW                    sampling algorithm    RP entry
//	URW, PPR               uniform               64-bit
//	DeepWalk (weighted)    alias                 256-bit
//	Node2Vec (unweighted)  rejection             64-bit
//	Node2Vec (weighted)    reservoir             128-bit
//	MetaPath (weighted)    reservoir             128-bit
//
// Samplers are stateless between calls — all walk state arrives in the
// Context, mirroring the paper's stateless task decomposition. Each result
// reports the number of probes (sampling iterations touching neighbor-list
// memory) so cycle-level models can charge the right service time.
package sampling

import (
	"fmt"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// Kind enumerates the sampling algorithms of Table I.
type Kind int

const (
	KindUniform Kind = iota
	KindAlias
	KindRejection
	KindReservoir
	KindMetaPath
)

// String returns the paper's name for the sampling algorithm.
func (k Kind) String() string {
	switch k {
	case KindUniform:
		return "uniform"
	case KindAlias:
		return "alias"
	case KindRejection:
		return "rejection"
	case KindReservoir:
		return "reservoir"
	case KindMetaPath:
		return "metapath-reservoir"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Context carries the walk state a sampler may condition on. First-order
// walks use only Cur; second-order walks (Node2Vec) also use Prev; MetaPath
// uses Step to index its schema.
type Context struct {
	Cur  graph.VertexID
	Prev graph.VertexID
	// HasPrev is false on the first hop, before any previous vertex exists.
	HasPrev bool
	// Deg, when positive, is Cur's already-known out-degree. Engines that
	// fetch the row before sampling (the cohort Row Access stage, Advance)
	// set it so degree-only samplers (uniform, rejection proposals) never
	// reload row pointers. 0 means unknown. The Context stays pass-by-
	// value small (one pointer beyond the original 24 bytes) on purpose:
	// it crosses an interface call per hop on the hottest loop in the
	// repository.
	Deg int32
	// Step is the hop index within the walk (0-based).
	Step int
	// Mem, when non-nil, holds the rows the engine resolved: samplers read
	// Cur's row and weights, and Prev's row for the second-order probe,
	// from it instead of the CSR — under a tiered store or a snapshot the
	// CSR's Col is not where every row lives. Advance leaves it nil and
	// samplers read g directly.
	Mem *RowView
}

// RowView is the memory an engine resolved for one walker: Cur's
// neighbor row (an overlay row, a hot-arena or Col slice, or the
// walker's own decode buffer), its weight row (nil unless the sampler
// reads weights on a weighted graph), and, for second-order samplers
// once the walk has a previous vertex, Prev's neighbor row N(prev), which
// HasEdge(prev, ·) probes search. One RowView lives per cohort lane or
// Walker and is reused across hops.
type RowView struct {
	Row  []graph.VertexID
	Wts  []float32
	Prev []graph.VertexID
}

// degree returns the out-degree of ctx.Cur, preferring the pre-gathered
// field.
func (ctx *Context) degree(g *graph.CSR) int {
	if ctx.Deg > 0 {
		return int(ctx.Deg)
	}
	return g.Degree(ctx.Cur)
}

// row returns Cur's neighbor list: the engine's resolved row when it
// staged one, the CSR row otherwise.
func (ctx *Context) row(g *graph.CSR) []graph.VertexID {
	if ctx.Mem != nil {
		return ctx.Mem.Row
	}
	return g.Neighbors(ctx.Cur)
}

// rowWeights returns Cur's weight row parallel to row (nil when the
// graph is unweighted), from Mem when the engine staged one.
func (ctx *Context) rowWeights(g *graph.CSR) []float32 {
	if ctx.Mem != nil {
		return ctx.Mem.Wts
	}
	if g.Weighted() {
		return g.NeighborWeights(ctx.Cur)
	}
	return nil
}

// Result is the outcome of one sampling decision.
type Result struct {
	// Index is the chosen position within Neighbors(Cur), or -1 when no
	// neighbor is selectable (e.g. no neighbor matches the MetaPath schema).
	Index int
	// Probes counts sampling iterations that touched neighbor-list memory:
	// 1 for uniform/alias, the rejection-loop trip count for rejection, and
	// the neighbor-list length for reservoir scans. Hardware models convert
	// probes into cycles.
	Probes int
}

// Sampler chooses a neighbor index for the current vertex.
type Sampler interface {
	// Sample picks a neighbor of ctx.Cur. The caller guarantees
	// g.Degree(ctx.Cur) > 0.
	Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result
	// Kind identifies the algorithm.
	Kind() Kind
	// RPEntryBits is the row-pointer entry width this sampler needs
	// (Table I): wider entries carry alias-table or weight-prefix pointers.
	RPEntryBits() int
}

// Uniform selects neighbors uniformly at random; used by URW and PPR.
type Uniform struct{}

// Sample implements Sampler.
func (u Uniform) Sample(g *graph.CSR, ctx Context, r *rng.Stream) Result {
	return SampleStaged(u, g, ctx, r)
}

// Kind implements Sampler.
func (Uniform) Kind() Kind { return KindUniform }

// RPEntryBits implements Sampler.
func (Uniform) RPEntryBits() int { return 64 }
