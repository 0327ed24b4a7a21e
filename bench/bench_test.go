package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splidt/internal/dataplane"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives: the acceptance rule is stated in those terms.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if !near(median(c.xs), c.q2) || !near(iqr(c.xs), c.q3-c.q1) {
			t.Errorf("median/iqr(%v) = %v %v", c.xs, median(c.xs), iqr(c.xs))
		}
	}
}

func TestPercentileIsAnObservedValue(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9}, 0.5); got != 3 {
		t.Errorf("percentile of two = %v, want the lower observed value 3", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestDueRing(t *testing.T) {
	r := newDueRing(4)
	if _, ok := r.lookup(0); ok {
		t.Fatal("empty ring resolved a digest")
	}
	ms := time.Millisecond
	// Chunk i covers packet time [10i, 10i+9] ms and was due at instant 100+i.
	for i := int64(0); i < 3; i++ {
		r.push(time.Duration(10*i)*ms, time.Duration(10*i+9)*ms, 100+i)
	}
	for _, c := range []struct {
		at   time.Duration
		want int64
	}{{0, 100}, {9 * ms, 100}, {10 * ms, 101}, {25 * ms, 102}} {
		if due, ok := r.lookup(c.at); !ok || due != c.want {
			t.Errorf("lookup(%v) = %v %v, want %v", c.at, due, ok, c.want)
		}
	}
	if _, ok := r.lookup(30 * ms); ok {
		t.Error("a packet time beyond the newest chunk resolved")
	}

	// Wrap: chunks 3..5 overwrite 0..1; chunk 2 survives in its old cell.
	for i := int64(3); i < 6; i++ {
		r.push(time.Duration(10*i)*ms, time.Duration(10*i+9)*ms, 100+i)
	}
	if due, ok := r.lookup(25 * ms); !ok || due != 102 {
		t.Errorf("after wrap lookup(25ms) = %v %v, want 102", due, ok)
	}
	if due, ok := r.lookup(55 * ms); !ok || due != 105 {
		t.Errorf("after wrap lookup(55ms) = %v %v, want 105", due, ok)
	}
	// A digest for an overwritten chunk must be reported, not mapped to a
	// wrong chunk and not silently skipped: the driver counts it as failed.
	if _, ok := r.lookup(5 * ms); ok {
		t.Error("digest of an overwritten chunk resolved")
	}

	// Consecutive chunks sharing a packet-time tick: the earliest is taken.
	s := newDueRing(4)
	s.push(0, 5*ms, 1)
	s.push(5*ms, 5*ms, 2)
	s.push(5*ms, 8*ms, 3)
	if due, _ := s.lookup(5 * ms); due != 1 {
		t.Errorf("shared tick resolved to chunk due %v, want the earliest (1)", due)
	}
}

func TestUnmappedDigestIsCountedAsFailure(t *testing.T) {
	d := &driver{ring: newDueRing(2), seg: &segResult{}}
	d.ring.push(100, 200, 1)
	d.recordDigests([]dataplane.Digest{{At: 150}, {At: 50}}, 10)
	if d.seg.Unmapped != 1 || len(d.seg.Lat) != 1 || d.seg.Polled != 2 {
		t.Errorf("unmapped=%d samples=%d polled=%d, want 1 1 2", d.seg.Unmapped, len(d.seg.Lat), d.seg.Polled)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spShadow, Parent: -1, Start: 0, End: 100},    // 0: root
		{Name: spAcquire, Parent: 0, Start: 10, End: 30},    // 1
		{Name: spUpdate, Parent: 0, Start: 30, End: 50},     // 2: adjacent to 1
		{Name: spSnapshot, Parent: 0, Start: 45, End: 60},   // 3: overlaps 2 by 5
		{Name: spMarks, Parent: 3, Start: 50, End: 55},      // 4: nested in 3
		{Name: spLookup, Parent: 0, Start: 90, End: 120},    // 5: sticks out of the root by 20
		{Name: spProcess, Parent: -1, Start: 200, End: 260}, // 6: childless root
	}
	got := selfTimes(spans)
	// Root: children cover [10,60] and [90,100] = 60, so self = 40.
	if got[spShadow].SelfNS != 40 || got[spShadow].Total != 100 {
		t.Errorf("root self=%d total=%d, want 40 100", got[spShadow].SelfNS, got[spShadow].Total)
	}
	if got[spSnapshot].SelfNS != 10 || got[spSnapshot].Total != 15 {
		t.Errorf("nested parent self=%d total=%d, want 10 15", got[spSnapshot].SelfNS, got[spSnapshot].Total)
	}
	for _, leaf := range []uint8{spAcquire, spUpdate, spMarks, spLookup, spProcess} {
		if got[leaf].SelfNS != got[leaf].Total || got[leaf].Count != 1 {
			t.Errorf("%s: self=%d total=%d count=%d, a leaf's self time is its duration", spanNames[leaf], got[leaf].SelfNS, got[leaf].Total, got[leaf].Count)
		}
	}
}

func TestPacerLateness(t *testing.T) {
	us := int64(time.Microsecond)
	p := pacer{start: 1000 * us, period: float64(20 * us)}
	if p.due(0) != 1000*us || p.due(5) != 1100*us {
		t.Fatalf("due(0)=%d due(5)=%d", p.due(0), p.due(5))
	}
	// On time: sent at its due instant, driver free long before.
	p.sent(0, 900*us, 1000*us)
	// 150 µs after due with the driver free all along: the driver's fault.
	p.sent(1, 900*us, 1170*us)
	// 5 ms after due, but the engine held the driver in Feed until 40 µs
	// before: backpressure, not a late driver.
	p.sent(2, 6000*us, 6040*us)
	// Released late by the engine and then another 300 µs late on its own.
	p.sent(3, 6100*us, 6400*us)
	if p.late != 2 {
		t.Errorf("late = %d, want 2", p.late)
	}
	if p.lateMax != 300*us {
		t.Errorf("lateMax = %d, want %d", p.lateMax, 300*us)
	}
}

func TestVerdict(t *testing.T) {
	flat := func(v float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = v + float64(i%3) // spread 2 on ~100: 2%
		}
		return xs
	}
	for _, c := range []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"same", flat(100), flat(100), "no change"},
		{"clear gain", flat(100), flat(80), "gain"},
		{"gain inside the spread", flat(100), flat(99.5), "no change"},
		{"regression", flat(100), flat(115), "REGRESSION"},
		{"worse but within bound", flat(100), flat(105), "no change"},
		{"too noisy to say", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, flat(80), "unresolved"},
		{"too few pairs to claim", flat(100)[:5], flat(80)[:5], "no change"},
		{"nothing measured", nil, nil, "no data"},
	} {
		if got, _, _ := verdict(c.old, c.cur, 0.10); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json repeats the metric and workload tables; the two must not
// drift apart. (Skipped where the file is absent.)
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, bm.Workloads[i].Name, w.Name)
		}
	}
	for _, tbl := range []struct {
		name      string
		json, got []metricDef
	}{{"end_to_end", bm.EndToEnd, endToEnd}, {"per_layer", bm.PerLayer, perLayer}} {
		if len(tbl.json) != len(tbl.got) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", tbl.name, len(tbl.json), len(tbl.got))
			continue
		}
		for i := range tbl.got {
			if tbl.json[i] != tbl.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", tbl.name, i, tbl.json[i], tbl.got[i])
			}
		}
	}
}

// The quick mode runs every workload end to end and traced, so the plumbing
// of all five and the trace writer are exercised without producing numbers
// anyone should record.
func TestQuickSuite(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 1, quick: true, trace: traced, outDir: dir}
			run, defs := runEndToEnd, endToEnd
			if traced {
				run, defs = runTraced, perLayer
			}
			res, err := run(w.quick(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d notes=%v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
			}
			if err := res.write(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(res.contractLine()); err != nil {
				t.Error(err)
			}
		}
		var tf traceFile
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &tf); err != nil {
			t.Fatalf("trace-%s.json: %v", w.Name, err)
		}
		if tf.Header.Workload.Name != w.Name || tf.Spans == 0 || len(tf.Raw) == 0 || tf.Totals["dataplane.process"].Count == 0 {
			t.Errorf("trace-%s.json: header %q, %d spans, %d raw, totals %v", w.Name, tf.Header.Workload.Name, tf.Spans, len(tf.Raw), tf.Totals)
		}
	}
	// The expiry workload must expire and block even when shrunk, or the
	// gates that keep it from silently measuring nothing are untested.
	b, err := os.ReadFile(filepath.Join(dir, "layers-churn-expiry.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Metrics["timerwheel.expiries_per_kpkt"].Value < 5 || res.Metrics["engine.blocks"].Value < 1 {
		t.Errorf("churn-expiry quick: expiries/kpkt %v, blocks %v", res.Metrics["timerwheel.expiries_per_kpkt"].Value, res.Metrics["engine.blocks"].Value)
	}
}
