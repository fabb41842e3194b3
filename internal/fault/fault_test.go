package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestCheckSchedule(t *testing.T) {
	defer Reset()
	Reset()
	if Armed() {
		t.Fatal("armed before any Enable")
	}
	if err := Check(BatchExec); err != nil {
		t.Fatalf("disarmed Check returned %v", err)
	}

	// After=2, Every=3, Limit=2: eligible checks 3, 6 fire; 9 would but
	// the limit stops it.
	Enable(BatchExec, Spec{Mode: ModeError, Every: 3, After: 2, Limit: 2})
	var fires []int
	for i := 1; i <= 12; i++ {
		if err := Check(BatchExec); err != nil {
			if !errors.Is(err, ErrEngineFault) {
				t.Fatalf("check %d: error %v does not match ErrEngineFault", i, err)
			}
			fires = append(fires, i)
		}
	}
	want := []int{3, 6}
	if len(fires) != len(want) || fires[0] != want[0] || fires[1] != want[1] {
		t.Fatalf("fires at checks %v, want %v", fires, want)
	}
	if got := Fired(BatchExec); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestCheckTagFiltering(t *testing.T) {
	defer Reset()
	Enable(BatchExec, Spec{Mode: ModeError, Tag: "cpu-pipelined"})
	if err := CheckTag(BatchExec, "cpu"); err != nil {
		t.Fatalf("non-matching tag fired: %v", err)
	}
	if err := Check(BatchExec); err != nil {
		t.Fatalf("untagged check fired against tagged spec: %v", err)
	}
	if err := CheckTag(BatchExec, "cpu-pipelined"); err == nil {
		t.Fatal("matching tag did not fire")
	}
	// Non-matching checks must not advance the schedule.
	Enable(ColdDecode, Spec{Mode: ModeError, Tag: "x", After: 1})
	_ = CheckTag(ColdDecode, "y") // ignored entirely
	if err := CheckTag(ColdDecode, "x"); err != nil {
		t.Fatal("first eligible check should be skipped by After=1")
	}
	if err := CheckTag(ColdDecode, "x"); err == nil {
		t.Fatal("second eligible check should fire")
	}
}

func TestContainPanicMode(t *testing.T) {
	defer Reset()
	Enable(ShardHandoff, Spec{Mode: ModePanic})
	err := Contain("shard-worker", func() error {
		MustCheck(ShardHandoff)
		return nil
	})
	if !errors.Is(err, ErrEngineFault) {
		t.Fatalf("contained panic = %v, want ErrEngineFault", err)
	}
	var ef *EngineFault
	if !errors.As(err, &ef) {
		t.Fatalf("error %T is not *EngineFault", err)
	}
	if ef.Point != ShardHandoff || ef.Boundary != "shard-worker" {
		t.Fatalf("fault = %+v, want point/boundary preserved", ef)
	}
}

func TestContainOrganicPanic(t *testing.T) {
	err := Contain("batch-group", func() error { panic("walker exploded") })
	var ef *EngineFault
	if !errors.As(err, &ef) || !errors.Is(err, ErrEngineFault) {
		t.Fatalf("organic panic not converted: %v", err)
	}
	if ef.Point != "" || ef.PanicValue != "walker exploded" || len(ef.Stack) == 0 {
		t.Fatalf("fault = %+v, want empty point + panic value + stack", ef)
	}
	// Plain errors pass through untouched.
	sentinel := errors.New("not a fault")
	if got := Contain("x", func() error { return sentinel }); got != sentinel {
		t.Fatalf("plain error mangled: %v", got)
	}
	if got := Contain("x", func() error { return nil }); got != nil {
		t.Fatalf("nil mangled: %v", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(3, 5*time.Second)
	b.SetClock(func() time.Time { return now })

	// Two faults then success: consecutive resets, never opens.
	b.Fault("k")
	b.Fault("k")
	b.Success("k")
	if b.Fault("k") {
		t.Fatal("opened after reset sequence")
	}
	if b.Fault("k") {
		t.Fatal("opened at 2 consecutive")
	}
	if !b.Fault("k") {
		t.Fatal("did not open at threshold")
	}
	if !b.Open("k") || b.Opens() != 1 {
		t.Fatalf("open=%v opens=%d after threshold", b.Open("k"), b.Opens())
	}
	if b.Fault("k") {
		t.Fatal("re-reported open on already-open key")
	}

	// Probe gate: closed until cool-down, then exactly once.
	if b.AllowProbe("k") {
		t.Fatal("probe allowed before cool-down")
	}
	now = now.Add(6 * time.Second)
	if !b.AllowProbe("k") {
		t.Fatal("probe not allowed after cool-down")
	}
	if b.AllowProbe("k") {
		t.Fatal("second concurrent probe allowed")
	}

	// Failed probe reopens: cool-down restarts.
	b.Reopen("k")
	if b.AllowProbe("k") {
		t.Fatal("probe allowed right after reopen")
	}
	now = now.Add(6 * time.Second)
	if !b.AllowProbe("k") {
		t.Fatal("probe not allowed after second cool-down")
	}

	// Successful probe closes.
	b.Reset("k")
	if b.Open("k") {
		t.Fatal("still open after Reset")
	}
	snap := b.Snapshot()
	if len(snap) != 1 || snap[0].State != "closed" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestParseSpec(t *testing.T) {
	p, s, err := ParseSpec("batch-exec=panic:every=3:after=1:limit=2:tag=cpu")
	if err != nil {
		t.Fatal(err)
	}
	if p != BatchExec || s.Mode != ModePanic || s.Every != 3 || s.After != 1 || s.Limit != 2 || s.Tag != "cpu" {
		t.Fatalf("parsed %v %+v", p, s)
	}
	if s.String() != "panic:every=3:after=1:limit=2:tag=cpu" {
		t.Fatalf("String() = %q", s.String())
	}
	for _, bad := range []string{"", "batch-exec", "nope=error", "batch-exec=maybe", "batch-exec=error:every=x", "batch-exec=error:bogus=1"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
	// The planner's former calibration probe point went with
	// calibration; naming it is an unknown-point error like any other.
	if _, err := ParseSpecs("calibration" + "-probe=error"); err == nil || !strings.Contains(err.Error(), "unknown injection point") {
		t.Fatalf("ParseSpecs of the deleted probe point: %v, want the unknown-point error", err)
	}
	defer Reset()
	pts, err := ParseSpecs("sampler-build=error:limit=1, cold-decode=panic")
	if err != nil || len(pts) != 2 {
		t.Fatalf("ParseSpecs: %v %v", pts, err)
	}
	if !Armed() {
		t.Fatal("ParseSpecs did not arm")
	}
}
