package exec

import (
	"reflect"
	"testing"

	"ridgewalker/internal/graph"
)

// TestCollectorSlabs pins the shared result collector: every path comes
// back equal to what was added and isolated from its slab neighbours, the
// step total sums over slots, a small batch takes a slab sized to it, and
// a large one never grows a slab past slabEntries.
func TestCollectorSlabs(t *testing.T) {
	const maxLen = 81
	path := func(i int) []graph.VertexID {
		p := make([]graph.VertexID, 1+i%maxLen)
		for j := range p {
			p[j] = graph.VertexID(i*131 + j)
		}
		return p
	}
	for _, tc := range []struct{ n, slots int }{{1, 1}, {64, 2}, {10000, 3}} {
		col := newCollector(tc.n, tc.slots, maxLen, false)
		share := (tc.n + tc.slots - 1) / tc.slots
		var steps int64
		for i := 0; i < tc.n; i++ {
			p := path(i)
			col.add(i/share, i, p, int64(len(p)-1)) // contiguous chunks, as runChunked deals them
			steps += int64(len(p) - 1)
			for j := range p {
				p[j] = 0 // the engine recycles its buffer
			}
		}
		for s := range col.slots {
			if c := cap(col.slots[s].slab); c > slabEntries || c > share*maxLen {
				t.Fatalf("n=%d: slot %d holds a %d-entry slab (bounds: %d, %d)", tc.n, s, c, slabEntries, share*maxLen)
			}
		}
		res := col.result()
		if res.Steps != steps {
			t.Fatalf("n=%d: steps %d, want %d", tc.n, res.Steps, steps)
		}
		for i, got := range res.Paths {
			if !reflect.DeepEqual(got, path(i)) {
				t.Fatalf("n=%d: path %d = %v", tc.n, i, got)
			}
			if cap(got) != len(got) {
				t.Fatalf("n=%d: path %d has spare capacity %d: an append would overwrite its neighbour", tc.n, i, cap(got)-len(got))
			}
		}
	}
	// A discarding session keeps the step total and no paths.
	col := newCollector(4, 2, maxLen, true)
	col.add(0, 0, path(5), 5)
	col.add(1, 3, path(7), 7)
	if res := col.result(); res.Paths != nil || res.Steps != 12 {
		t.Fatalf("discard: paths %v steps %d, want nil and 12", res.Paths, res.Steps)
	}
}
