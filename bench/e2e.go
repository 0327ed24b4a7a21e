package main

import (
	"time"
)

// options are the knobs of one run, from the command line.
type options struct {
	seed    int64
	seconds int
	quick   bool
	trace   bool
	outDir  string
}

// Set-up is repeated so its time can be reported as a median: at least
// minSetups times, and while set-ups are cheap (under setupBudget in total)
// up to maxSetups, because a 0.1 s set-up is mostly first-touch noise.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
	minSegments = 3
)

// ratio is a / b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runEndToEnd measures one workload with tracing off: repeated set-up, then
// back-to-back fixed-work segments on the one warm session. Every metric is
// the median over the segments.
func runEndToEnd(w workload, o options) (*result, error) {
	res := &result{Header: newHeader(w, o), Correct: true}
	if err := verify(o.seed); err != nil {
		res.fail("%v", err)
	}

	var (
		r      *rig
		setups []float64
	)
	for begun := time.Now(); ; {
		t0 := time.Now()
		var err error
		if r, err = newRig(w, o.seed, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		again := len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begun) < setupBudget)
		if o.quick || !again {
			break
		}
		if err := r.close(); err != nil {
			return nil, err
		}
		r = nil // let the old engine go before the next is built
	}

	// One fixed-work segment per requested second (each takes about a
	// second on the machine the sizes were chosen on). The count follows
	// -seconds, not the clock: the streams are not stationary — a population
	// born together ages over the run — so measuring "until time is up"
	// would let a faster engine reach later, costlier stretches of the
	// stream and compare unlike with unlike.
	segments := max(minSegments, o.seconds)
	if o.quick {
		segments = 1
	}
	var segs []*segResult
	var allocs []float64
	for len(segs) < segments {
		s, err := r.drv.segment()
		if err != nil {
			r.close()
			return nil, err
		}
		segs = append(segs, s)
		p, err := r.drv.allocProbe()
		if err != nil {
			r.close()
			return nil, err
		}
		allocs = append(allocs, ratio(float64(p.Mallocs)*1000, float64(p.Pkts)))
		res.Attempted += p.Offered
		res.Failed += p.Failed
	}
	tableCap := r.eng.TableCap()
	if err := r.close(); err != nil {
		res.fail("session: %v", err)
	}

	ms := newMetricSet(endToEnd)
	var nsPkt, p50, p99 []float64
	var samples, blocks, expiries, pkts int64
	for _, s := range segs {
		nsPkt = append(nsPkt, ratio(float64(s.Wall), float64(s.Pkts)))
		p50 = append(p50, percentile(s.Lat, 0.50))
		p99 = append(p99, percentile(s.Lat, 0.99))
		samples += int64(len(s.Lat))
		blocks += s.Blocks
		expiries += int64(s.Stats.WheelExpiries)
		pkts += s.Pkts
		res.Attempted += s.Offered
		res.Failed += s.Failed
		if w.Rate > 0 && !o.quick { // a quick run may be under the race detector, ten times slower
			if achieved := ratio(float64(s.Offered), s.Wall.Seconds()); achieved < 0.99*w.Rate {
				res.fail("achieved %.0f pkts/s is under 99%% of the %.0f offered", achieved, w.Rate)
			}
			if late := ratio(float64(s.LateChunks), float64(s.Chunks)); late > 0.01 {
				res.fail("driver.late_ratio %.4f > 0.01: the generator, not the engine, set the latency", late)
			}
		}
	}
	n := int64(len(segs))
	res.PerSegment = map[string][]float64{"ns_per_pkt": nsPkt, "digest_p50_us": p50, "digest_p99_us": p99, "allocs_per_kpkt": allocs, "setup_s": setups}
	ms.setMedian("ns_per_pkt", nsPkt, n)
	ms.setMedian("digest_p50_us", p50, samples)
	ms.setMedian("allocs_per_kpkt", allocs, n)
	ms.set("mem_bytes_per_slot", ratio(float64(r.memBytes), float64(tableCap)), 1)
	ms.setMedian("setup_s", setups, int64(len(setups)))

	if res.Failed > 0 {
		res.fail("%d of %d packets failed (rejects, quarantine drops, discarded, conservation gap, lost digests)", res.Failed, res.Attempted)
	}
	if w.IdleTimeout > 0 {
		if e := ratio(float64(expiries)*1000, float64(pkts)); e < 5 {
			res.fail("timerwheel.expiries_per_kpkt %.2f < 5: the expiry workload expired next to nothing", e)
		}
	}
	if w.BlockEvery > 0 && !o.quick && blocks < 1000 {
		res.fail("engine.blocks %d < 1000", blocks)
	}
	if miss := ms.missing(); len(miss) > 0 {
		res.fail("metrics not measured: %v", miss)
	}
	res.Segments = len(segs)
	res.Metrics = ms.m
	return res, nil
}
