package exec

import "ridgewalker/internal/graph"

// slabEntries bounds one path slab at 32 KiB — the allocator's largest
// small size class, served from the per-P cache without the heap lock. A
// slab holds ~100 paths of a length-80 walk, so a large batch makes two
// orders of magnitude fewer allocations than one per path, and a caller
// that retains a single path pins at most one slab.
const slabEntries = 1 << 13

// collector assembles one Run's BatchResult for the CPU sessions. Engine
// path buffers are recycled, so every finished walk is copied out — into
// a slab per slot instead of one allocation per path — and steps are
// summed per slot instead of on a counter every worker shares.
type collector struct {
	paths  [][]graph.VertexID // nil when the session discards paths
	maxLen int                // longest possible path, WalkLength+1
	slots  []collectorSlot
}

// collectorSlot is one emitter's share; add calls on one slot must not
// overlap. The engines that know which worker emits pass its index; the
// sharded session, whose emits carry no worker identity, locks.
type collectorSlot struct {
	slab  []graph.VertexID // current slab; its unused capacity is the free tail
	left  int              // walks this slot may still receive
	steps int64
	_     [64]byte // keep neighbouring slots off this one's cache line
}

// newCollector sizes a collector for n walks spread evenly (within one
// walk) over the slots. A closed session has no workers left; its Run
// fails before any add, so one idle slot stands in.
func newCollector(n, slots, maxLen int, discard bool) *collector {
	slots = max(slots, 1)
	c := &collector{maxLen: maxLen, slots: make([]collectorSlot, slots)}
	if !discard {
		c.paths = make([][]graph.VertexID, n)
	}
	share := (n + slots - 1) / slots
	for i := range c.slots {
		c.slots[i].left = share
	}
	return c
}

// add records walk i of the batch, copying path out of the engine's
// buffer.
func (c *collector) add(slot, i int, path []graph.VertexID, steps int64) {
	s := &c.slots[slot]
	s.steps += steps
	if c.paths != nil {
		if cap(s.slab)-len(s.slab) < len(path) {
			// A fresh slab for what the slot can still receive, capped so
			// no slab outgrows slabEntries (or undershoots this path).
			n := min(max(s.left, 1)*c.maxLen, slabEntries)
			s.slab = make([]graph.VertexID, 0, max(n, len(path)))
		}
		lo := len(s.slab)
		s.slab = append(s.slab, path...)
		c.paths[i] = s.slab[lo:len(s.slab):len(s.slab)]
		s.left--
	}
}

// result returns the assembled paths and the step total.
func (c *collector) result() *BatchResult {
	res := &BatchResult{Paths: c.paths}
	for i := range c.slots {
		res.Steps += c.slots[i].steps
	}
	return res
}
