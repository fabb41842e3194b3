package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the metric tables
// of the program from drifting apart.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in manifest, %d in program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %s (%s)", i, m.Workloads[i], w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var gated, layers []spec
	for _, s := range endToEnd {
		if s.Gated {
			gated = append(gated, s)
		} else {
			layers = append(layers, s)
		}
	}
	layers = append(perLayer[:len(perLayer):len(perLayer)], layers...)
	if len(m.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in manifest, %d gated in program", len(m.EndToEnd), len(gated))
	}
	for i, s := range gated {
		e := m.EndToEnd[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better || e.Bound != s.Bound {
			t.Errorf("end_to_end %d: manifest %+v, program %+v", i, e, s)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(layers) {
		t.Fatalf("%d per_layer metrics in manifest, %d in program", len(m.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, s := range layers {
		e := m.PerLayer[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better {
			t.Errorf("per_layer %d: manifest %+v, program %+v", i, e, s)
		}
	}
	for _, s := range append(gated, layers...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better %q", s.Name, s.Better)
		}
		seen[s.Name] = true
	}
}

// TestSmokeWorkloads runs every workload traced on a tiny graph with
// 200 ms of measured phases and checks what the driver would read.
func TestSmokeWorkloads(t *testing.T) {
	m := readManifest(t)
	env := environment{NProc: 1, GOMAXPROCS: 1, Go: "test", Commit: "test"}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 3, seconds: 0.2, scale: 10, traced: true, smoke: true}
			rec, err := runWorkload(w, o, env)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 || rec.Checked < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d checked=%d", rec.Correct, rec.Attempted, rec.Failed, rec.Checked)
			}
			if !w.serve && rec.EndToEnd["failed_share"].Value != 0 {
				t.Errorf("failed_share %v on a batch workload", rec.EndToEnd["failed_share"].Value)
			}

			for _, traced := range []bool{false, true} {
				rec.Traced = traced
				var buf bytes.Buffer
				printResultLine(&buf, rec)
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(&buf)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
					t.Fatalf("result line lacks a key: %+v", line)
				}
				want := map[string]string{}
				if traced {
					for _, e := range m.PerLayer {
						want[e.Name] = e.Unit
					}
				} else {
					for _, e := range m.EndToEnd {
						want[e.Name] = e.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics on the line, manifest names %d", traced, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("traced=%v: %s missing", traced, name)
					case got.Unit != unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
						t.Errorf("traced=%v: %s = %v %s, want a finite value in %s", traced, name, *got.Value, got.Unit, unit)
					case !traced && *got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", name, *got.Value)
					}
				}
			}
			if w.mutate {
				for _, name := range []string{"goodput_rps", "mutate_p50_ms"} {
					if rec.EndToEnd[name].Value <= 0 {
						t.Errorf("%s = %v", name, rec.EndToEnd[name].Value)
					}
				}
			}

			path := filepath.Join(t.TempDir(), "spans.json")
			if err := writeTrace(path, w.name, o.seed, rec.spans); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			if len(tf.Spans) < 5 || tf.Spans[0].Name != w.name {
				t.Fatalf("%d spans, first %+v", len(tf.Spans), tf.Spans[0])
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Error(err)
			}
			for _, s := range tf.Spans[1:] {
				if s.Parent == 0 {
					t.Errorf("span %d (%s) is a second root", s.ID, s.Name)
				}
			}
		})
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	s := sortedCopy(xs)
	if xs[0] != 5 || s[0] != 1 || s[9] != 10 {
		t.Fatalf("sortedCopy disturbed its input or did not sort: %v %v", xs, s)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 99) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{4, 3, 2, 1}); q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "c", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 20 + 30, "b": 30, "c": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans[4].Parent = 9
	if checkSpans(spans) == nil {
		t.Error("a span whose parent does not exist passed checkSpans")
	}
	var off *tracer
	off.end(off.begin("x", 0, -1))
	if off.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestOpenLoop(t *testing.T) {
	const rate, n = 2000.0, 40
	start := time.Now()
	dues := make([]time.Duration, n)
	var ran atomic.Int64
	late, dropped := openLoop(start, rate, n, maxOutstanding, func(i int, due time.Time) {
		dues[i] = due.Sub(start)
		ran.Add(1)
	})
	if elapsed := time.Since(start); elapsed < (n-1)*time.Second/rate {
		t.Errorf("loop of %d at %v/s returned after %v", n, rate, elapsed)
	}
	if ran.Load() != n {
		t.Errorf("%d of %d requests ran", ran.Load(), n)
	}
	for i := range dues {
		if want := time.Duration(float64(i) / rate * float64(time.Second)); dues[i] != want {
			t.Errorf("request %d due at %v, want %v", i, dues[i], want)
		}
		if late[i] < 0 || dropped[i] {
			t.Errorf("request %d: late %v dropped %v", i, late[i], dropped[i])
		}
	}

	// Requests that never return fill the cap; everything due after that
	// is dropped, and the pacer keeps its schedule instead of blocking.
	const limit = 3
	release := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ran.Store(0)
	_, dropped = openLoop(time.Now(), rate, n, limit, func(int, time.Time) {
		ran.Add(1)
		<-release
	})
	drops := 0
	for i, d := range dropped {
		if d {
			drops++
		} else if i >= limit {
			t.Errorf("request %d was sent beyond the cap", i)
		}
	}
	if ran.Load() != limit || drops != n-limit {
		t.Errorf("%d ran and %d dropped, want %d and %d", ran.Load(), drops, limit, n-limit)
	}

	// A stalled pacer reports how late it ran and times from the due time.
	stalled := time.Now().Add(-20 * time.Millisecond)
	late, _ = openLoop(stalled, rate, 2, limit, func(int, time.Time) {})
	if late[0] < 20*time.Millisecond || late[1] < 19*time.Millisecond {
		t.Errorf("lateness %v, want about 20ms", late)
	}
}

func TestVerdict(t *testing.T) {
	lower := spec{Name: "lower", Better: "lower", Bound: 0.10}
	higher := spec{Name: "higher", Better: "higher", Bound: 0.10}
	share := endToEnd[5]
	if share.Name != "failed_share" || !share.Abs {
		t.Fatalf("endToEnd[5] = %+v", share)
	}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		s        spec
		workload string
		a, b     []float64
		want     string
	}{
		{lower, "serve-urw", steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lower, "serve-urw", steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{lower, "serve-urw", steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, "batch-urw", steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{higher, "batch-urw", steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, "serve-urw", []float64{80, 120, 100, 90, 110}, []float64{130, 131, 129, 130, 130}, "unresolved"},
		{share, "serve-urw", []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}, "ok"},
		{share, "serve-urw", []float64{0, 0, 0}, []float64{0.03, 0.03, 0.03}, "regressed"},
		{share, "serve-deepwalk-mutate", []float64{0.15, 0.15, 0.15}, []float64{0.19, 0.19, 0.19}, "ok"},
	} {
		if got, _ := verdict(c.s, c.workload, c.a, c.b); got != c.want {
			t.Errorf("%s on %s: %v -> %v = %s, want %s", c.s.Name, c.workload, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, msteps float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			rec := &record{Workload: "batch-urw", EndToEnd: map[string]metric{
				"msteps_per_s": {Value: msteps + float64(i)/100, Unit: "Mstep/s"},
				"failed_share": {Value: 0, Unit: "share"},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 4), write("same.jsonl", 4.1), write("slow.jsonl", 2.5)
	var out bytes.Buffer
	if regressed, err := compareFiles(a, same, &out); err != nil || regressed {
		t.Errorf("equal runs: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(a, slow, &out); err != nil || !regressed {
		t.Errorf("a third slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("table lacks a verdict or a metric:\n%s", out.String())
	}
}
