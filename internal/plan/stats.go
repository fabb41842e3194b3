package plan

import (
	"math/bits"

	"ridgewalker/internal/graph"
)

// GraphStats are the load-time statistics feeding the plan decision.
// Everything here is one O(V) pass over the row-pointer array — no edge
// traversal — so computing them at graph load or service start is
// negligible next to building a single sampler.
type GraphStats struct {
	// Vertices and Edges are the graph dimensions.
	Vertices int
	Edges    int64
	// ZeroOutDegree counts sink vertices (walks terminate immediately).
	ZeroOutDegree int
	// AvgDegree and MaxDegree summarize the degree distribution.
	AvgDegree float64
	MaxDegree int
	// HubMass is the fraction of all edges owned by (approximately) the
	// top 1% highest-degree vertices — the skew signal that decides
	// whether hub-oriented placement (hot arenas) can pay.
	// It is computed from power-of-two degree buckets, so the vertex cut
	// is approximate but deterministic.
	HubMass float64
	// Weighted and Labeled report which payloads the graph carries
	// (which algorithms are servable and which sampler kinds apply).
	Weighted bool
	Labeled  bool
	// Epoch and OverlayDirtyFraction describe the versioned-graph state
	// the statistics were taken under: the serving epoch and the
	// fraction of vertices whose rows live in the mutation overlay.
	// A dirty overlay shifts row reads onto the merged-row slow path,
	// which calibration measures implicitly when probing the base graph
	// underestimates; the fraction is surfaced so drift re-planning has
	// the context.
	Epoch                uint64
	OverlayDirtyFraction float64
}

// ComputeStats derives the planner's graph statistics for g, optionally
// under an epoch snapshot (nil for a pristine graph).
func ComputeStats(g *graph.CSR, snap *graph.Snapshot) GraphStats {
	st := GraphStats{
		Vertices: g.NumVertices,
		Edges:    g.NumEdges(),
		Weighted: g.Weighted(),
		Labeled:  g.Labels != nil,
	}
	// One pass: degree extremes, sinks, and power-of-two degree buckets
	// (bucket b holds degrees in [2^(b-1), 2^b)), each tracking its
	// vertex count and edge sum.
	const nbuckets = 64
	var cnt [nbuckets]int
	var mass [nbuckets]int64
	for v := 0; v < g.NumVertices; v++ {
		d := int(g.RowPtr[v+1] - g.RowPtr[v])
		if d == 0 {
			st.ZeroOutDegree++
			continue
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		b := bits.Len(uint(d))
		cnt[b]++
		mass[b] += int64(d)
	}
	if st.Vertices > 0 {
		st.AvgDegree = float64(st.Edges) / float64(st.Vertices)
	}
	if st.Edges > 0 {
		// Walk buckets highest-degree first until the top ~1% of vertices
		// is covered; a partially consumed bucket contributes its edge
		// mass pro-rated by vertex count, keeping the statistic smooth.
		want := st.Vertices / 100
		if want < 1 {
			want = 1
		}
		taken, hub := 0, int64(0)
		for b := nbuckets - 1; b >= 0 && taken < want; b-- {
			if cnt[b] == 0 {
				continue
			}
			if taken+cnt[b] <= want {
				taken += cnt[b]
				hub += mass[b]
				continue
			}
			frac := float64(want-taken) / float64(cnt[b])
			hub += int64(frac * float64(mass[b]))
			taken = want
		}
		st.HubMass = float64(hub) / float64(st.Edges)
	}
	if snap != nil {
		st.Epoch = snap.Epoch()
		if g.NumVertices > 0 {
			st.OverlayDirtyFraction = float64(snap.NumDirty()) / float64(g.NumVertices)
		}
	}
	return st
}
