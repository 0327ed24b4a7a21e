package main

// metricDef declares one reported metric. The tables below are the single
// source of the names, units, directions and bounds; BENCHMARK.json repeats
// them and a unit test keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median the metric may worsen by
}

// endToEnd is what a user of the engine sees. Every workload reports all of
// them (README says where each one carries meaning).
//
// The bounds are what this 2-CPU container can hold, not what one would
// wish: its speed wanders by ±6–8 % over minutes whatever the estimator, so
// a time-based bound under 0.25 would reject the benchmark against itself.
// A claim needs the ten-pair rule of `bench compare`, not the bound.
// digest_p99_us could not hold any admissible bound (its run-to-run spread
// was 23–29 % on two workloads) and is reported per layer instead, as
// driver.digest_p99_us; fail_ratio is 0 on every healthy run, which an
// end-to-end metric may never be, so it is the contract line's "failed"
// count and engine.fail_ratio per layer.
var endToEnd = []metricDef{
	{"ns_per_pkt", "ns", "lower", 0.25},
	{"digest_p50_us", "us", "lower", 0.25},
	{"mem_bytes_per_slot", "B", "lower", 0.02},
	{"allocs_per_kpkt", "count", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured by the traced run, from outside each layer.
var perLayer = []metricDef{
	{Name: "loadgen.next_ns", Unit: "ns", Better: "lower"},
	{Name: "driver.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "driver.late_max_us", Unit: "us", Better: "lower"},
	{Name: "driver.digest_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.digest_p99_us", Unit: "us", Better: "lower"},
	{Name: "flow.canonical_hash_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "engine.trace_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.feed_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.feed_backpressure_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.poll_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.digest_emit_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.digest_emit_p99_us", Unit: "us", Better: "lower"},
	{Name: "engine.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.block_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.blocks", Unit: "count", Better: "higher"},
	{Name: "engine.dropped_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "engine.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.recorder_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.process_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.process_allocs_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.process_sweep_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.windowends_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.digests_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.recirc_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.collisions_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "dataplane.stage_sum_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.residual_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.acquire_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.acquire_fresh_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.release_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.direct_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "flowtable.entry_bytes", Unit: "B", Better: "lower"},
	{Name: "flowtable.kicks_per_insert", Unit: "ratio", Better: "lower"},
	{Name: "flowtable.stash_ratio", Unit: "ratio", Better: "lower"},
	{Name: "features.update_ns", Unit: "ns", Better: "lower"},
	{Name: "features.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "features.reset_ns", Unit: "ns", Better: "lower"},
	{Name: "rangemark.marks_ns", Unit: "ns", Better: "lower"},
	{Name: "rangemark.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "tcam.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.advance_ns_per_expiry", Unit: "ns", Better: "lower"},
	{Name: "timerwheel.expiries_per_kpkt", Unit: "count", Better: "higher"},
	{Name: "timerwheel.cascades_per_kpkt", Unit: "count", Better: "lower"},
}

// metric is one reported value. IQR is the quartile distance of the samples
// the value is the median of (segments, or repeated set-ups); N says how
// many samples of the underlying quantity stand behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr,omitempty"`
	N     int64   `json:"n,omitempty"`
}

// metricSet collects values against a definition table, so a name that is
// not declared (or declared and never set) is caught, not silently shipped.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

func (s *metricSet) unit(name string) string {
	for _, d := range s.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: undeclared metric " + name)
}

// set records a single value backed by n samples.
func (s *metricSet) set(name string, v float64, n int64) {
	s.m[name] = metric{Value: v, Unit: s.unit(name), N: n}
}

// setMedian records the median of per-segment values with their IQR.
func (s *metricSet) setMedian(name string, xs []float64, n int64) {
	s.m[name] = metric{Value: median(xs), Unit: s.unit(name), IQR: iqr(xs), N: n}
}

// missing lists declared metrics that were never set.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.m[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
