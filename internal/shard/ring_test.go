package shard

import (
	"runtime"
	"sync"
	"testing"

	"ridgewalker/internal/walk"
)

// TestRingBasics pins push/pop ordering, capacity rounding, and the
// full/empty boundary conditions.
func TestRingBasics(t *testing.T) {
	r := newRing(3) // rounds up to 4
	if len(r.buf) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.buf))
	}
	var w walkerRec
	if r.pop(&w) {
		t.Fatal("pop on empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		w.idx = int32(i)
		if !r.push(&w) {
			t.Fatalf("push %d on non-full ring failed", i)
		}
	}
	w.idx = 99
	if r.push(&w) {
		t.Fatal("push on full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.pop(&w) {
			t.Fatalf("pop %d on non-empty ring failed", i)
		}
		if w.idx != int32(i) {
			t.Fatalf("pop %d returned record %d: FIFO order broken", i, w.idx)
		}
	}
	if r.pop(&w) {
		t.Fatal("pop after drain succeeded")
	}
}

// TestRingWraparound cycles far past the capacity so the monotonic
// position arithmetic is exercised across many wraps.
func TestRingWraparound(t *testing.T) {
	r := newRing(2)
	var w walkerRec
	for i := 0; i < 1000; i++ {
		w.idx = int32(i)
		if !r.push(&w) {
			t.Fatalf("push %d failed on empty-ish ring", i)
		}
		if !r.pop(&w) || w.idx != int32(i) {
			t.Fatalf("pop %d returned %d", i, w.idx)
		}
	}
}

// TestRingSPSCStress runs a real producer/consumer pair under the race
// detector: every record pushed must arrive exactly once, in order, with
// its payload intact.
func TestRingSPSCStress(t *testing.T) {
	const n = 100000
	r := newRing(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var w walkerRec
		for i := 0; i < n; {
			w.idx = int32(i)
			w.q = walk.Query{ID: uint32(i), Start: uint32(i * 3)}
			w.st.Step = i
			if r.push(&w) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var w walkerRec
	for i := 0; i < n; {
		if !r.pop(&w) {
			runtime.Gosched()
			continue
		}
		if w.idx != int32(i) || w.q.ID != uint32(i) || w.q.Start != uint32(i*3) || w.st.Step != i {
			t.Fatalf("record %d arrived corrupted: %+v", i, w)
		}
		i++
	}
	wg.Wait()
	if r.pop(&w) {
		t.Fatal("ring not empty after stress")
	}
}

// TestMeshRouteSpreadsAcrossPoolWorkers pins the routing fix for
// multi-worker shard pools: a producer's consecutive hand-offs to one
// shard must rotate over every worker of that shard's pool (a static
// residue-class route would strand all traffic on one worker per shard
// and park the rest for the whole run).
func TestMeshRouteSpreadsAcrossPoolWorkers(t *testing.T) {
	g := ringGraph(t, 64)
	cfg := walk.DefaultConfig(walk.URW)
	cfg.WalkLength = 5
	p, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, p, cfg, EngineConfig{Workers: 8, Cohort: 4}) // perShard = 4
	if err != nil {
		t.Fatal(err)
	}
	m := newMesh(e)
	if m.perShard != 4 {
		t.Fatalf("perShard = %d, want 4", m.perShard)
	}
	for dst := 0; dst < 2; dst++ {
		var rr uint32
		seen := map[int]bool{}
		for i := 0; i < m.perShard; i++ {
			c := m.route(&rr, dst)
			if c/m.perShard != dst {
				t.Fatalf("route(dst=%d) returned worker %d outside the shard's pool", dst, c)
			}
			seen[c] = true
		}
		if len(seen) != m.perShard {
			t.Fatalf("dst=%d: %d consecutive hand-offs reached only %d of %d pool workers",
				dst, m.perShard, len(seen), m.perShard)
		}
	}
}
