// Package shard partitions a CSR graph into edge-balanced shards and
// executes graph random walks across them: each shard owns a worker
// goroutine pool that advances only walkers standing on its own vertices,
// and walkers migrate between shards through fixed-capacity SPSC rings —
// one flat record copy per hand-off, no boxing, no allocation — when a
// hop crosses a partition boundary.
//
// This is the software analogue of RidgeWalker's per-channel task routing:
// the accelerator keeps many walkers in flight by pinning each memory
// channel to a slice of the graph and steering tasks to the channel that
// owns their current vertex; here each shard plays the channel's role, so
// the rows a worker touches concentrate in one partition's working set
// instead of striding across the whole CSR. ThunderRW's step-interleaved
// partition execution and FlexiWalker's cross-partition adaptation follow
// the same shape in software.
//
// Determinism is preserved end to end: every walker carries its own
// query-keyed RNG stream and resumable walk.State, so the trajectory of a
// walk depends only on (seed, query ID, start vertex) — never on which
// shard advanced it or in what order migrations were delivered. The
// "cpu-sharded" execution backend built on this package is byte-identical
// to the "cpu" backend for the same seed.
package shard

import (
	"fmt"
	"sort"

	"ridgewalker/internal/graph"
)

// Shard is one partition of the graph: a CSR-shaped view of the contiguous
// global vertex range [Lo, Hi) it owns, read through local vertex ids
// 0..NumVertices()-1. Every array aliases the parent graph's storage —
// building a shard copies nothing — and Col keeps global destination ids:
// a neighbor may live in any shard, which is exactly what walker
// migration handles.
type Shard struct {
	// ID is the shard's index within the Partitioning.
	ID int
	// Lo, Hi bound the owned global vertex range [Lo, Hi).
	Lo, Hi graph.VertexID
	// Col holds the owned rows' neighbor lists with global vertex ids; it
	// aliases the parent graph's storage.
	Col []graph.VertexID
	// Weights parallels Col when the parent graph is weighted; nil
	// otherwise. It aliases the parent graph's storage.
	Weights []float32
	// Internal counts owned edges whose destination is also owned;
	// External counts owned edges that cross into another shard (the
	// edge-cut contribution of this shard).
	Internal, External int64

	// rowPtr aliases the parent graph's row-pointer entries for [Lo, Hi];
	// base rebases its offsets into Col/Weights.
	rowPtr []int64
	base   int64
}

// NumVertices returns the number of owned vertices.
func (s *Shard) NumVertices() int { return int(s.Hi - s.Lo) }

// NumEdges returns the number of owned directed edges.
func (s *Shard) NumEdges() int64 { return int64(len(s.Col)) }

// Owns reports whether global vertex v belongs to this shard.
func (s *Shard) Owns(v graph.VertexID) bool { return v >= s.Lo && v < s.Hi }

// Local maps a global vertex id to the shard-local id, reporting false for
// vertices owned by other shards.
func (s *Shard) Local(v graph.VertexID) (graph.VertexID, bool) {
	if !s.Owns(v) {
		return 0, false
	}
	return v - s.Lo, true
}

// Global maps a shard-local vertex id back to the global id.
func (s *Shard) Global(lv graph.VertexID) graph.VertexID { return lv + s.Lo }

// Degree returns the out-degree of the shard-local vertex lv.
func (s *Shard) Degree(lv graph.VertexID) int {
	return int(s.rowPtr[lv+1] - s.rowPtr[lv])
}

// Neighbors returns the neighbor list (global ids) of the shard-local
// vertex lv. The slice aliases graph storage and must not be modified.
func (s *Shard) Neighbors(lv graph.VertexID) []graph.VertexID {
	return s.Col[s.rowPtr[lv]-s.base : s.rowPtr[lv+1]-s.base]
}

// NeighborWeights returns the edge weights parallel to Neighbors(lv), or
// nil for unweighted graphs. The slice aliases graph storage.
func (s *Shard) NeighborWeights(lv graph.VertexID) []float32 {
	if s.Weights == nil {
		return nil
	}
	return s.Weights[s.rowPtr[lv]-s.base : s.rowPtr[lv+1]-s.base]
}

// Partitioning is an edge-balanced, contiguous-range edge-cut partition of
// a graph into K shards.
type Partitioning struct {
	// K is the shard count.
	K int
	// Shards holds the per-shard CSR views, ordered by vertex range.
	Shards []*Shard
	// CutEdges counts directed edges whose endpoints land in different
	// shards.
	CutEdges int64
	// TotalEdges is the graph's directed edge count.
	TotalEdges int64

	// ResidentHubs counts vertices marked memory-resident (see Resident).
	ResidentHubs int
	// ResidentBytes is the total neighbor-list footprint of resident rows.
	ResidentBytes int64

	// bounds[s]..bounds[s+1] is shard s's vertex range (len K+1).
	bounds []graph.VertexID
	// resident is a bitset over vertices whose rows are hot enough to be
	// cache-resident on every core (see Resident).
	resident []uint64
}

// checkPartitionCount refuses a shard count Partition cannot honor.
func checkPartitionCount(g *graph.CSR, k int) error {
	if k < 1 {
		return fmt.Errorf("shard: partition count %d, want >= 1", k)
	}
	if k > g.NumVertices && !(k == 1 && g.NumVertices == 0) {
		return fmt.Errorf("shard: partition count %d exceeds %d vertices", k, g.NumVertices)
	}
	return nil
}

// Partition splits g into k shards of near-equal edge count over
// contiguous vertex ranges — the cheapest edge-cut heuristic that keeps
// the global→local map O(1) and lets every shard's rows alias the parent
// CSR. Generators in this repository (RMAT, dataset twins) emit
// locality-heavy id orders, so contiguous ranges also keep the cut
// fraction low without a k-way min-cut pass.
//
// k must satisfy 1 <= k <= g.NumVertices; every shard owns at least one
// vertex. The degenerate empty graph (0 vertices, accepted everywhere
// else in the repository) partitions into a single empty shard at k = 1.
func Partition(g *graph.CSR, k int) (*Partitioning, error) {
	if err := checkPartitionCount(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices
	total := g.NumEdges()
	bounds := make([]graph.VertexID, k+1)
	bounds[k] = graph.VertexID(n)
	// Greedy sweep: close shard s at the first vertex where the cumulative
	// edge count reaches s/k of the total, clamped so every remaining shard
	// still gets at least one vertex.
	v := 0
	for s := 1; s < k; s++ {
		targetEdges := total * int64(s) / int64(k)
		for v < n && g.RowPtr[v] < targetEdges {
			v++
		}
		lo := int(bounds[s-1]) + 1 // at least one vertex in shard s-1
		hi := n - (k - s)          // at least one vertex per remaining shard
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		bounds[s] = graph.VertexID(v)
	}
	p := &Partitioning{
		K:          k,
		Shards:     make([]*Shard, k),
		TotalEdges: total,
		bounds:     bounds,
	}
	for s := 0; s < k; s++ {
		lo, hi := bounds[s], bounds[s+1]
		sh := &Shard{
			ID:     s,
			Lo:     lo,
			Hi:     hi,
			Col:    g.Col[g.RowPtr[lo]:g.RowPtr[hi]],
			rowPtr: g.RowPtr[lo : int64(hi)+1],
			base:   g.RowPtr[lo],
		}
		if g.Weights != nil {
			sh.Weights = g.Weights[g.RowPtr[lo]:g.RowPtr[hi]]
		}
		for _, dst := range sh.Col {
			if sh.Owns(dst) {
				sh.Internal++
			} else {
				sh.External++
			}
		}
		p.CutEdges += sh.External
		p.Shards[s] = sh
	}
	p.markResidentHubs(g)
	return p, nil
}

// residentHubBudget bounds the neighbor-list bytes marked resident (the
// working set assumed to stay in shared cache regardless of shard).
const residentHubBudget = 4 << 20

// markResidentHubs flags hub vertices as memory-resident. Power-law walks
// concentrate their hops on a handful of high-degree vertices; those rows
// stay in the last-level cache no matter which shard's worker touches
// them, so a walker stepping onto a hub gains nothing from migrating —
// FlexiWalker's partition-adaptation insight. Only vertices with at least
// 4× the average degree qualify (uniform-degree graphs mark none), taken
// in descending degree order until the row-byte budget is spent.
func (p *Partitioning) markResidentHubs(g *graph.CSR) {
	if p.K == 1 || g.NumVertices == 0 || g.NumEdges() == 0 {
		return
	}
	threshold := 4 * int(g.NumEdges()/int64(g.NumVertices))
	if threshold < 4 {
		threshold = 4
	}
	type hub struct {
		v   graph.VertexID
		deg int
	}
	var hubs []hub
	for v := 0; v < g.NumVertices; v++ {
		if d := g.Degree(graph.VertexID(v)); d >= threshold {
			hubs = append(hubs, hub{graph.VertexID(v), d})
		}
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i].deg > hubs[j].deg })
	p.resident = make([]uint64, (g.NumVertices+63)/64)
	for _, h := range hubs {
		bytes := int64(h.deg) * 4 // Col entries
		if p.ResidentBytes+bytes > residentHubBudget {
			break
		}
		p.resident[h.v/64] |= 1 << (h.v % 64)
		p.ResidentBytes += bytes
		p.ResidentHubs++
	}
}

// Resident reports whether v's row is treated as cache-resident on every
// shard: walkers standing on a resident vertex are advanced in place by
// whichever shard holds them instead of migrating.
func (p *Partitioning) Resident(v graph.VertexID) bool {
	if p.resident == nil {
		return false
	}
	return p.resident[v/64]&(1<<(v%64)) != 0
}

// Owner returns the shard index owning global vertex v. Bounds are a
// handful of entries, so the binary search stays in cache on the hot path.
func (p *Partitioning) Owner(v graph.VertexID) int {
	// sort.Search over bounds[1..K]: the first upper bound exceeding v.
	return sort.Search(p.K-1, func(s int) bool { return v < p.bounds[s+1] })
}

// CutFraction returns the edge-cut ratio CutEdges/TotalEdges (0 for an
// edgeless graph).
func (p *Partitioning) CutFraction() float64 {
	if p.TotalEdges == 0 {
		return 0
	}
	return float64(p.CutEdges) / float64(p.TotalEdges)
}

// String summarizes the partitioning for logs and CLI output.
func (p *Partitioning) String() string {
	return fmt.Sprintf("shard.Partitioning{k=%d cut=%.1f%% edges=%d}",
		p.K, 100*p.CutFraction(), p.TotalEdges)
}
