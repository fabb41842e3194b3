// Package fault is the serving stack's failure-domain toolkit: a
// deterministic fault-injection registry with named injection points
// threaded through the execution layers, the typed engine-fault error
// that panic containment converts crashes into, and the per-class
// circuit breaker the planner's demotion path rides on.
//
// Injection is zero-cost when disabled: every Check compiles to one
// atomic load on the disarmed fast path, so the points can sit on hot
// paths (cold-row decode, shard ring hand-off) without a steady-state
// tax. When armed, firing is a deterministic function of the per-point
// check counter and the Spec's After/Every/Limit schedule — two runs of
// the same single-threaded workload under the same spec fault at the
// same checks — which is what makes the chaos matrix a regression test
// instead of a dice roll.
package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Point names one injection site threaded through the stack.
type Point string

// The registered injection points.
const (
	// SamplerBuild fires in the sampler construction path (registry
	// acquire and direct builds).
	SamplerBuild Point = "sampler-build"
	// ColdDecode fires in the tiered store's cold-row decode hot path.
	// Its error-mode injections surface as contained panics: the decode
	// API has no error return.
	ColdDecode Point = "cold-decode"
	// ShardHandoff fires at the sharded engine's migration-ring push
	// (walker hand-off between shard workers). Like ColdDecode it
	// surfaces as a contained panic.
	ShardHandoff Point = "shard-handoff"
	// DispatchFlush fires at the top of the serving layer's batch-group
	// dispatch (a flushed group about to run).
	DispatchFlush Point = "dispatch-flush"
	// BatchExec fires inside backend batch execution, at the engines'
	// cooperative-stop checkpoints; the tag is the executing backend
	// name ("cpu", "cpu-pipelined", "cpu-sharded").
	BatchExec Point = "batch-exec"
)

// Points lists every registered injection point in deterministic order.
func Points() []Point {
	return []Point{SamplerBuild, ColdDecode, ShardHandoff, DispatchFlush, BatchExec}
}

// Mode selects how an injection surfaces.
type Mode int

const (
	// ModeError returns a typed engine-fault error from the check.
	// Points on no-error hot paths (ColdDecode, ShardHandoff) surface
	// it as a contained panic instead.
	ModeError Mode = iota
	// ModePanic panics with the typed engine fault; a containment
	// boundary (Contain) converts it back into an error.
	ModePanic
)

func (m Mode) String() string {
	if m == ModePanic {
		return "panic"
	}
	return "error"
}

// Spec schedules a point's injections deterministically over its
// eligible checks (checks whose tag matches the spec's).
type Spec struct {
	// Mode selects error-return or panic injection.
	Mode Mode
	// Every fires on the 1st, (Every+1)th, ... eligible check after the
	// After skip. 0 or 1 means every eligible check.
	Every int
	// After skips the first After eligible checks entirely.
	After int
	// Limit caps total fires; 0 means unlimited. A finite limit makes
	// the fault transient: later checks pass, so the chaos tests can
	// pin recovery (byte-identical retries, breaker restore) too.
	Limit int
	// Tag, when nonempty, restricts firing to CheckTag calls carrying
	// this tag — e.g. fault only "cpu-pipelined" batch execution while
	// "cpu" stays healthy, which is how the breaker's demote-then-serve
	// path is tested.
	Tag string
}

// String renders the spec the way the CLI -chaos flag parses it.
func (s Spec) String() string {
	out := s.Mode.String()
	if s.Every > 1 {
		out += fmt.Sprintf(":every=%d", s.Every)
	}
	if s.After > 0 {
		out += fmt.Sprintf(":after=%d", s.After)
	}
	if s.Limit > 0 {
		out += fmt.Sprintf(":limit=%d", s.Limit)
	}
	if s.Tag != "" {
		out += ":tag=" + s.Tag
	}
	return out
}

// ErrEngineFault is the sentinel every contained engine failure —
// injected or real — matches through errors.Is. Serving layers convert
// it into per-request replies, breaker strikes, and quarantine counts
// while the process keeps serving.
var ErrEngineFault = errors.New("engine fault")

// EngineFault is the typed error a containment boundary produces: the
// injection point (empty for organic panics), the boundary that caught
// it, and — for contained panics — the panic value and stack.
type EngineFault struct {
	// Point is the injection point that fired, "" when the fault was an
	// organic (non-injected) panic.
	Point Point
	// Boundary names the containment boundary that produced the error
	// ("exec-worker", "shard-worker", "batch-group", ...). Empty until
	// a boundary catches the fault.
	Boundary string
	// PanicValue and Stack record a contained panic; nil/empty for
	// error-mode injections.
	PanicValue any
	Stack      []byte
}

func (e *EngineFault) Error() string {
	msg := "fault: engine fault"
	if e.Boundary != "" {
		msg += " at " + e.Boundary
	}
	if e.Point != "" {
		msg += fmt.Sprintf(" (injected: %s)", e.Point)
	}
	if e.PanicValue != nil {
		if _, ok := e.PanicValue.(*EngineFault); !ok {
			msg += fmt.Sprintf(": panic: %v", e.PanicValue)
		}
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrEngineFault) hold.
func (e *EngineFault) Unwrap() error { return ErrEngineFault }

// Contain runs fn, converting a panic into a typed *EngineFault carrying
// the given boundary name (and the injection point, when the panic was
// an injected one). It is the stack's panic firewall: worker goroutines,
// batch-group dispatch, and plan health checks all run under it, so one
// crashing walk kills its group, never the process. Non-panic errors
// pass through unchanged.
func Contain(boundary string, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if ef, ok := rec.(*EngineFault); ok {
				if ef.Boundary == "" {
					ef.Boundary = boundary
				}
				err = ef
				return
			}
			err = &EngineFault{Boundary: boundary, PanicValue: rec, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// pointState tracks one enabled point's schedule position.
type pointState struct {
	spec   Spec
	checks int64 // eligible (tag-matched) checks observed
	fired  int64
}

var (
	// armed counts enabled points; the disarmed fast path is one atomic
	// load.
	armed atomic.Int32

	mu     sync.Mutex
	points map[Point]*pointState
)

// Armed reports whether any injection point is enabled. Hot paths may
// use it to guard a check, though Check itself starts with the same
// single atomic load.
func Armed() bool { return armed.Load() != 0 }

// Enable arms p with the given schedule, replacing any previous spec
// (and resetting p's counters).
func Enable(p Point, s Spec) {
	if s.Every < 1 {
		s.Every = 1
	}
	mu.Lock()
	if points == nil {
		points = map[Point]*pointState{}
	}
	if _, ok := points[p]; !ok {
		armed.Add(1)
	}
	points[p] = &pointState{spec: s}
	mu.Unlock()
}

// Disable disarms p.
func Disable(p Point) {
	mu.Lock()
	if _, ok := points[p]; ok {
		delete(points, p)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point and clears all counters.
func Reset() {
	mu.Lock()
	if n := len(points); n > 0 {
		armed.Add(-int32(n))
	}
	points = nil
	mu.Unlock()
}

// Fired reports how many times p has fired since it was enabled.
func Fired(p Point) int64 {
	mu.Lock()
	defer mu.Unlock()
	if st := points[p]; st != nil {
		return st.fired
	}
	return 0
}

// Counts snapshots fire counts for every enabled point.
func Counts() map[Point]int64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[Point]int64, len(points))
	for p, st := range points {
		out[p] = st.fired
	}
	return out
}

// Check is CheckTag with an empty tag: it fires under any spec whose
// Tag is empty. Error-mode injections return the typed engine fault;
// panic-mode injections panic with it (contain upstream).
func Check(p Point) error {
	if armed.Load() == 0 {
		return nil
	}
	return checkSlow(p, "")
}

// CheckTag is Check for sites that carry a discriminator (the backend
// name). A spec with an empty Tag matches every tag; a nonempty Tag
// matches only its own, and non-matching checks do not advance the
// schedule.
func CheckTag(p Point, tag string) error {
	if armed.Load() == 0 {
		return nil
	}
	return checkSlow(p, tag)
}

// MustCheck is Check for no-error hot paths (cold-row decode, ring
// hand-off): any injection — either mode — surfaces as a panic carrying
// the typed fault, to be converted back by the nearest Contain.
func MustCheck(p Point) {
	if armed.Load() == 0 {
		return
	}
	if err := checkSlow(p, ""); err != nil {
		panic(err)
	}
}

func checkSlow(p Point, tag string) error {
	mu.Lock()
	st := points[p]
	if st == nil {
		mu.Unlock()
		return nil
	}
	if st.spec.Tag != "" && st.spec.Tag != tag {
		mu.Unlock()
		return nil
	}
	st.checks++
	seq := st.checks - int64(st.spec.After)
	fire := seq >= 1 && (seq-1)%int64(st.spec.Every) == 0 &&
		(st.spec.Limit == 0 || st.fired < int64(st.spec.Limit))
	if fire {
		st.fired++
	}
	mode := st.spec.Mode
	mu.Unlock()
	if !fire {
		return nil
	}
	ef := &EngineFault{Point: p}
	if mode == ModePanic {
		panic(ef)
	}
	return ef
}
