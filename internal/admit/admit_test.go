package admit

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is an adjustable time source for token-bucket tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func controller(cfg Config, c *fakeClock) *Controller {
	cfg.Clock = c.now
	return NewController(cfg)
}

func TestStaticBudgetShedsExcess(t *testing.T) {
	c := controller(Config{Workers: 2, MaxInFlight: 10}, newFakeClock())
	// Interactive share of 10 at 4:1 is ceil(10*4/5) = 8.
	if err := c.Admit(0, "", 6, -1); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := c.Admit(0, "", 2, -1); err != nil {
		t.Fatalf("second admit within share: %v", err)
	}
	err := c.Admit(0, "", 1, -1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-share admit = %v, want ErrOverloaded", err)
	}
	c.Release(0, 6)
	if err := c.Admit(0, "", 1, -1); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	st := c.Stats()
	if st.PerLane["interactive"].Admitted != 9 || st.PerLane["interactive"].Shed != 1 {
		t.Fatalf("interactive counters = %+v", st.PerLane["interactive"])
	}
}

func TestIdleLaneAlwaysAdmits(t *testing.T) {
	c := controller(Config{Workers: 1, MaxInFlight: 4}, newFakeClock())
	// A request far larger than the whole budget admits on an idle lane —
	// the budget bounds backlog, it must not wedge big single requests.
	if err := c.Admit(1, "", 1000, -1); err != nil {
		t.Fatalf("idle-lane oversized admit: %v", err)
	}
	if err := c.Admit(1, "", 1, -1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("busy-lane admit = %v, want ErrOverloaded", err)
	}
}

func TestAutoBudgetTracksServiceRate(t *testing.T) {
	c := controller(Config{Workers: 4, MaxInFlight: Auto}, newFakeClock())
	cold := c.Budget()
	if cold != 4*coldBudgetPerWorker {
		t.Fatalf("cold budget = %d, want %d", cold, 4*coldBudgetPerWorker)
	}
	// Groups of 400 queries in 10ms across 4 workers → 10k q/s per worker;
	// feedback window 10ms → mu·c = 100 per worker, and each worker's
	// resident task is one 400-query group → D = 4·400 + 100·4 = 2000.
	for i := 0; i < 50; i++ {
		c.Observe(400, 10*time.Millisecond, 10*time.Millisecond)
	}
	b := c.Budget()
	if b < 1900 || b > 2100 {
		t.Fatalf("auto budget = %d, want ≈2000", b)
	}
	// A 10× slower service rate shrinks the budget proportionally.
	for i := 0; i < 50; i++ {
		c.Observe(40, 10*time.Millisecond, 10*time.Millisecond)
	}
	b2 := c.Budget()
	if b2 < 180 || b2 > 220 {
		t.Fatalf("auto budget after slowdown = %d (was %d), want ≈200", b2, b)
	}
}

// TestAutoBudgetWindowIsTheRoundTrip pins what the feedback window
// measures: the time a group's slots were held, not the engine's share of
// it. With the engine time as the window, a fast engine behind a
// coalescing wait priced the budget at about one group, and which
// multiple of a group it settled on was decided by timing noise.
func TestAutoBudgetWindowIsTheRoundTrip(t *testing.T) {
	c := controller(Config{Workers: 2, MaxInFlight: Auto}, newFakeClock())
	// 64-query groups that run for 0.4ms but hold their slots for 2.4ms:
	// 80k q/s per worker over a 2.4ms window → mu·c = 192 per worker →
	// D = 2·64 + 192·2 = 512.
	for i := 0; i < 50; i++ {
		c.Observe(64, 400*time.Microsecond, 2400*time.Microsecond)
	}
	if b := c.Budget(); b < 490 || b > 530 {
		t.Fatalf("auto budget = %d, want ≈512", b)
	}
	// A round trip reported shorter than the run counts as the run.
	c.ResetObservations()
	for i := 0; i < 50; i++ {
		c.Observe(64, 5*time.Millisecond, 0)
	}
	// 6.4k q/s per worker over 5ms → mu·c = 32 → D = 2·64 + 32·2 = 192.
	if b := c.Budget(); b < 180 || b > 200 {
		t.Fatalf("auto budget without a round trip = %d, want ≈192", b)
	}
}

// TestAutoBudgetWindowFloor pins minHeadroom: a round trip shorter than
// two netpoller wakes is priced as the 2 ms floor, so a 0.3 ms round trip
// buys the same budget as a 2 ms one.
func TestAutoBudgetWindowFloor(t *testing.T) {
	budget := func(roundTrip time.Duration) int {
		c := controller(Config{Workers: 2, MaxInFlight: Auto}, newFakeClock())
		for i := 0; i < 50; i++ {
			c.Observe(64, 200*time.Microsecond, roundTrip)
		}
		return c.Budget()
	}
	fast, floor := budget(300*time.Microsecond), budget(2*time.Millisecond)
	if fast != floor {
		t.Fatalf("budget at a 0.3ms round trip = %d, at 2ms = %d; want equal", fast, floor)
	}
	// 64 queries in 0.2ms across 2 workers → 160k q/s per worker; over the
	// 2ms floor mu·c = 320 per worker → D = 2·64 + 320·2 = 768.
	if floor < 740 || floor > 800 {
		t.Fatalf("budget at the floor = %d, want ≈768", floor)
	}
	if above := budget(4 * time.Millisecond); above <= floor {
		t.Fatalf("budget at a 4ms round trip = %d, want above the floor's %d", above, floor)
	}
}

func TestDeadlineFeasibilitySheds(t *testing.T) {
	c := controller(Config{Workers: 1, MaxInFlight: 1000}, newFakeClock())
	// Service rate: 100 queries/sec per worker.
	for i := 0; i < 20; i++ {
		c.Observe(100, time.Second, time.Second)
	}
	if err := c.Admit(0, "", 50, -1); err != nil {
		t.Fatalf("seed admit: %v", err)
	}
	// 50 queries queued at 100 q/s → ≥500ms wait; a 100ms deadline is
	// infeasible and must shed fast.
	err := c.Admit(0, "", 1, 100*time.Millisecond)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("infeasible-deadline admit = %v, want ErrOverloaded", err)
	}
	// The same request with generous headroom is admitted.
	if err := c.Admit(0, "", 1, 10*time.Second); err != nil {
		t.Fatalf("feasible-deadline admit: %v", err)
	}
}

func TestTenantQuotaTokenBucket(t *testing.T) {
	clk := newFakeClock()
	c := controller(Config{
		Workers:      1,
		TenantQuotas: map[string]Quota{"abuser": {QPS: 10, Burst: 20}},
	}, clk)
	// Burst drains: 20 tokens admit, the 21st sheds.
	if err := c.Admit(0, "abuser", 20, -1); err != nil {
		t.Fatalf("burst admit: %v", err)
	}
	if err := c.Admit(0, "abuser", 1, -1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-burst admit = %v, want ErrQuotaExceeded", err)
	}
	// Other tenants are unaffected by the abuser's empty bucket.
	if err := c.Admit(0, "good", 1000, -1); err != nil {
		t.Fatalf("other-tenant admit: %v", err)
	}
	// Refill at 10 qps: after 1s, 10 tokens are back.
	clk.advance(time.Second)
	if err := c.Admit(0, "abuser", 10, -1); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	if err := c.Admit(0, "abuser", 1, -1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("post-refill over-admit = %v, want ErrQuotaExceeded", err)
	}
	st := c.Stats()
	ab := st.PerTenant["abuser"]
	if ab.Admitted != 30 || ab.Shed != 2 {
		t.Fatalf("abuser counters = %+v", ab)
	}
	if st.PerTenant["good"].Shed != 0 {
		t.Fatalf("good tenant shed = %+v", st.PerTenant["good"])
	}
}

func TestQuotaRefillCapsAtBurst(t *testing.T) {
	clk := newFakeClock()
	c := controller(Config{
		Workers:      1,
		DefaultQuota: Quota{QPS: 5, Burst: 10},
	}, clk)
	if err := c.Admit(0, "", 10, -1); err != nil {
		t.Fatalf("burst admit: %v", err)
	}
	clk.advance(time.Hour) // refills to burst, not QPS·3600
	if err := c.Admit(0, "", 11, -1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-burst after refill = %v, want ErrQuotaExceeded", err)
	}
	if err := c.Admit(0, "", 10, -1); err != nil {
		t.Fatalf("at-burst after refill: %v", err)
	}
}

func TestExpireCounts(t *testing.T) {
	c := controller(Config{Workers: 1}, newFakeClock())
	if err := c.Admit(1, "t", 5, -1); err != nil {
		t.Fatal(err)
	}
	c.Expire(1, "t", 5)
	c.Release(1, 5)
	st := c.Stats()
	if st.PerLane["bulk"].Expired != 5 || st.PerTenant["t"].Expired != 5 {
		t.Fatalf("expired counters = %+v / %+v", st.PerLane["bulk"], st.PerTenant["t"])
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight after release = %d", st.InFlight)
	}
}

// TestWRRStarvationFreedom drives the picker with both lanes perpetually
// eligible and checks the weighted split exactly: over every full round
// of sumW picks, bulk gets its weight.
func TestWRRStarvationFreedom(t *testing.T) {
	w := NewWRR([NumLanes]int{4, 1})
	always := func(int) bool { return true }
	counts := [NumLanes]int{}
	for i := 0; i < 500; i++ {
		lane := w.Next(always)
		if lane < 0 {
			t.Fatalf("pick %d returned -1 with all lanes eligible", i)
		}
		counts[lane]++
	}
	if counts[0] != 400 || counts[1] != 100 {
		t.Fatalf("pick split = %v, want [400 100]", counts)
	}
}

// TestWRRBulkOnly checks a lane drains alone when the other is empty,
// without waiting out the busy lane's unused credit.
func TestWRRBulkOnly(t *testing.T) {
	w := NewWRR([NumLanes]int{4, 1})
	bulkOnly := func(lane int) bool { return lane == 1 }
	for i := 0; i < 20; i++ {
		if lane := w.Next(bulkOnly); lane != 1 {
			t.Fatalf("pick %d = %d, want bulk", i, lane)
		}
	}
	if lane := w.Next(func(int) bool { return false }); lane != -1 {
		t.Fatalf("pick with nothing eligible = %d, want -1", lane)
	}
}

func TestAdmitRejectsBadArgs(t *testing.T) {
	c := controller(Config{Workers: 1}, newFakeClock())
	if err := c.Admit(-1, "", 1, -1); err == nil {
		t.Fatal("negative lane accepted")
	}
	if err := c.Admit(NumLanes, "", 1, -1); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
	if err := c.Admit(0, "", 0, -1); err == nil {
		t.Fatal("zero queries accepted")
	}
}
