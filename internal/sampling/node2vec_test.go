package sampling

import (
	"fmt"
	"math"
	"testing"

	"ridgewalker/internal/graph"
	"ridgewalker/internal/rng"
)

// acceptByBias is the rejection trip's acceptance rule as one expression
// over the probed bias, the form Accept took before the coin-first rule:
// every coin is compared with node2vecBias, whose probe always runs.
func acceptByBias(s *Rejection, g *graph.CSR, prev, x graph.VertexID, coin float64, trips int) bool {
	u := coin * s.maxBias
	return u < node2vecBias(g, nil, prev, x, s.P, s.Q) || trips >= s.MaxTrips
}

// decided finishes a trip through Decide and, when it names a probe,
// Probed — the rule Accept and the pipelined Sample pass share.
func decided(s *Rejection, g *graph.CSR, prev, x graph.VertexID, coin float64, trips int) bool {
	switch s.Decide(coin, trips, x == prev) {
	case Accepted:
		return true
	case Rejected:
		return false
	}
	return s.Probed(g.HasEdge(prev, x))
}

// TestRejectionDecideMatchesBiasExpression tables the coin-first rule
// against acceptByBias for every candidate class — the return to prev, a
// neighbor of prev, any other vertex — with coins exactly at and one ulp
// around each bias (1/q, 1, 1/p) and the envelope ends, trip counts around
// MaxTrips, and a NaN coin. It also checks that Decide names a probe only
// when the probe's answer changes the outcome.
func TestRejectionDecideMatchesBiasExpression(t *testing.T) {
	// prev = 0 has the one edge 0→1: candidate 0 returns, 1 stays near and
	// 2 explores.
	g, err := graph.Build(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, true)
	if err != nil {
		t.Fatal(err)
	}
	const prev = 0
	for _, pq := range [][2]float64{{2, 0.5}, {0.5, 2}, {1, 1}, {4, 4}, {0.25, 0.25}, {100, 100}, {3, 0.7}} {
		p, q := pq[0], pq[1]
		s, err := NewRejection(p, q)
		if err != nil {
			t.Fatal(err)
		}
		var us []float64
		for _, b := range []float64{0, 1 / q, 1, 1 / p, s.maxBias} {
			us = append(us, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
		}
		coins := []float64{math.NaN(), 0.5, math.Nextafter(1, 0)}
		for _, u := range us {
			// Where the envelope is a power of two, u/maxBias·maxBias == u
			// and the coin sits exactly on the bias; (3, 0.7) adds an
			// envelope that is not.
			coins = append(coins, u/s.maxBias)
		}
		for _, trips := range []int{1, s.MaxTrips - 1, s.MaxTrips, s.MaxTrips + 1} {
			for _, coin := range coins {
				for _, x := range []graph.VertexID{0, 1, 2} {
					name := fmt.Sprintf("p=%g q=%g trips=%d coin=%v x=%d", p, q, trips, coin, x)
					want := acceptByBias(s, g, prev, x, coin, trips)
					if got := decided(s, g, prev, x, coin, trips); got != want {
						t.Fatalf("%s: accept %v, want %v", name, got, want)
					}
				}
				// Decide's verdict for a non-return candidate must not depend
				// on adjacency unless it asks for the probe.
				near := acceptByBias(s, g, prev, 1, coin, trips)
				far := acceptByBias(s, g, prev, 2, coin, trips)
				if probe := s.Decide(coin, trips, false) == NeedsProbe; probe != (near != far) {
					t.Fatalf("p=%g q=%g trips=%d coin=%v: NeedsProbe=%v, but the probe decides=%v",
						p, q, trips, coin, probe, near != far)
				}
			}
		}
	}
}

// TestRejectionAcceptKeepsStream runs Accept and acceptByBias from copies
// of the same stream over real second-order contexts: the decisions agree
// and both consume exactly one draw.
func TestRejectionAcceptKeepsStream(t *testing.T) {
	g := stagedTestGraph(t)
	g.Weights = nil
	for _, pq := range [][2]float64{{2, 0.5}, {0.5, 2}, {0.25, 0.25}, {4, 4}} {
		s, err := NewRejection(pq[0], pq[1])
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(17)
		for _, ctx := range stagedContexts(g, 2000, 3) {
			if !ctx.HasPrev {
				continue
			}
			c := s.Propose(g, ctx, Candidate{Trips: r.Intn(s.MaxTrips)}, r)
			x := g.Neighbors(ctx.Cur)[c.Index]
			r1, r2 := *r, *r
			got := s.Accept(g, ctx, c, &r1)
			want := acceptByBias(s, g, ctx.Prev, x, r2.Float64(), c.Trips)
			if got != want {
				t.Fatalf("p=%g q=%g ctx %+v candidate %d: Accept %v, want %v", s.P, s.Q, ctx, x, got, want)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatal("Accept consumed a different number of draws")
			}
			*r = r1
		}
	}
}
