package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/features"
	"splidt/internal/flow"
	"splidt/internal/flowtable"
	"splidt/internal/loadgen"
	"splidt/internal/pkt"
)

// runTraced is the per-layer run, kept apart from the end-to-end run whose
// numbers are taken with tracing off. It measures, always from outside:
//
//  1. the engine — plain and span-wrapped segments alternating on one warm
//     session (their difference is the tracing overhead), a twin engine with
//     the flight recorder compiled out, the control calls, and the engine's
//     own push → emit latency from a session restarted WithDigestLatency;
//  2. the data plane — one Pipeline replaying the workload's own stream on
//     one goroutine, in 256-packet blocks;
//  3. the layers under it — the shadow stage-at-a-time replay of the same
//     stream, then per-call loops over the shadow's live working set.
func runTraced(w workload, o options) (*result, error) {
	res := &result{Header: newHeader(w, o), Correct: true}
	if err := verify(o.seed); err != nil {
		res.fail("%v", err)
	}
	ms := newMetricSet(perLayer)
	tr := newTracer()

	eng, err := engineLayer(w, o, tr, ms)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	md, err := trainModel()
	if err != nil {
		return nil, err
	}
	n := w.SegPkts / 2
	proc, err := replayProcess(w, md, o.seed, dataplane.ExpiryWheel, n, tr)
	if err != nil {
		return nil, err
	}
	ms.set("dataplane.process_ns", proc.ns, int64(n))
	ms.set("dataplane.process_allocs_per_kpkt", proc.allocsPerKpkt, int64(n))
	perK := func(c int) float64 { return ratio(float64(c)*1000, float64(proc.stats.Packets)) }
	ms.set("dataplane.digests_per_kpkt", perK(proc.stats.Digests), int64(n))
	ms.set("dataplane.recirc_per_kpkt", perK(proc.stats.ControlPackets), int64(n))
	ms.set("dataplane.collisions_per_kpkt", perK(proc.stats.Collisions), int64(n))
	ms.set("engine.overhead_ns", eng.plainNS-proc.ns, int64(n))
	sweepNS := 0.0
	if w.IdleTimeout > 0 {
		sw, err := replayProcess(w, md, o.seed, dataplane.ExpirySweep, n, nil)
		if err != nil {
			return nil, err
		}
		sweepNS = sw.ns
	}
	ms.set("dataplane.process_sweep_ns", sweepNS, int64(n))
	runtime.GC()

	sh, err := replayShadow(w, md, o.seed, n, tr)
	if err != nil {
		return nil, err
	}
	tot := selfTimes(tr.spans)
	perCall := func(name uint8) float64 { return ratio(float64(tot[name].Total), float64(sh.calls[name])) }
	stageSum := 0.0
	for name := uint8(spAcquire); name <= spAdvance; name++ {
		stageSum += ratio(float64(tot[name].Total), float64(n))
	}
	ms.set("dataplane.windowends_per_kpkt", ratio(float64(sh.calls[spSnapshot])*1000, float64(n)), int64(n))
	ms.set("dataplane.stage_sum_ns", stageSum, int64(n))
	ms.set("dataplane.residual_ns", proc.ns-stageSum, int64(n))
	ms.set("features.update_ns", perCall(spUpdate), sh.calls[spUpdate])
	ms.set("features.snapshot_ns", perCall(spSnapshot), sh.calls[spSnapshot])
	ms.set("features.reset_ns", perCall(spReset), sh.calls[spReset])
	ms.set("rangemark.marks_ns", perCall(spMarks), sh.calls[spMarks])
	ms.set("rangemark.lookup_ns", perCall(spLookup), sh.calls[spLookup])
	ms.set("timerwheel.schedule_ns", perCall(spSchedule), sh.calls[spSchedule])
	ms.set("timerwheel.advance_ns_per_expiry", perCall(spAdvance), sh.calls[spAdvance])
	st := sh.store.Stats()
	ms.set("flowtable.kicks_per_insert", ratio(float64(st.Kicks), float64(sh.fresh)), sh.fresh)
	ms.set("flowtable.stash_ratio", ratio(float64(st.StashInserts), float64(sh.fresh)), sh.fresh)
	ms.set("flowtable.entry_bytes", float64(unsafe.Sizeof(flowtable.Entry{})), 1)
	microLayers(w, md, sh, o, ms)

	if miss := ms.missing(); len(miss) > 0 {
		res.fail("metrics not measured: %v", miss)
	}
	if g, e := ms.m["loadgen.next_ns"].Value, ms.m["engine.ns_per_pkt"].Value; w.Rate == 0 && !o.quick && g >= e/2 {
		res.fail("loadgen.next_ns %.1f is not under half of ns_per_pkt %.1f: the workload is generator-bound", g, e)
	}
	res.Attempted, res.Failed, res.Segments = eng.attempted, eng.failed, eng.segments
	if res.Failed > 0 {
		res.fail("%d of %d packets failed", res.Failed, res.Attempted)
	}
	res.Metrics = ms.m
	res.Waterfall = waterfall(ms, tot, n)
	return res, tr.write(filepath.Join(o.outDir, "trace-"+w.Name+".json"), res.Header, tot)
}

// engineSide is what the engine-level part hands to the rest of the run.
type engineSide struct {
	plainNS           float64 // untraced median ns/pkt, the figure the budget is reconciled with
	attempted, failed int64
	segments          int
}

// engineLayer takes every engine.* and driver.* metric.
func engineLayer(w workload, o options, tr *tracer, ms *metricSet) (engineSide, error) {
	on, err := newRig(w, o.seed, 0)
	if err != nil {
		return engineSide{}, err
	}
	defer on.close()
	twin, err := newRig(w, o.seed, -1) // flight recorder compiled out
	if err != nil {
		return engineSide{}, err
	}
	defer twin.close()

	// Two engines, but never two live sessions: an idle shard worker still
	// spins and would steal cycles from the one being measured, so the rigs
	// take turns, each pausing (closing its session) while the other runs.
	if err := twin.close(); err != nil {
		return engineSide{}, err
	}
	pairs := 3
	if o.quick {
		pairs = 1
	}
	var plain, traced, off series
	var p50, p99 []float64 // digest latency as the driver sees it, plain segments
	for i := 0; i < pairs; i++ {
		if err := on.restart(engine.WithBoundedDigests()); err != nil {
			return engineSide{}, err
		}
		s, err := plain.measure(on, nil)
		if err != nil {
			return engineSide{}, err
		}
		p50 = append(p50, percentile(s.Lat, 0.50))
		p99 = append(p99, percentile(s.Lat, 0.99))
		if _, err := traced.measure(on, tr); err != nil {
			return engineSide{}, err
		}
		if err := twin.restart(engine.WithBoundedDigests()); err != nil {
			return engineSide{}, err
		}
		if _, err := off.measure(twin, nil); err != nil {
			return engineSide{}, err
		}
		if err := twin.close(); err != nil {
			return engineSide{}, err
		}
	}
	n := int64(pairs)
	ms.setMedian("engine.ns_per_pkt", plain.ns, n)
	ms.set("engine.trace_overhead_ns", median(traced.ns)-median(plain.ns), n)
	ms.set("engine.recorder_delta_ns", median(plain.ns)-median(off.ns), n)
	ms.set("loadgen.next_ns", ratio(float64(traced.sum.GenNS), float64(traced.sum.Offered)), traced.sum.Offered)
	ms.set("engine.feed_ns", ratio(float64(traced.sum.FeedNS), float64(traced.sum.Offered)), traced.sum.Offered)
	ms.set("engine.poll_ns", ratio(float64(traced.sum.PollNS), float64(traced.sum.Polled)), traced.sum.Polled)
	ms.set("engine.feed_backpressure_ratio", ratio(float64(plain.sum.RefusedChunks), float64(plain.sum.Chunks)), plain.sum.Chunks)
	ms.set("driver.late_ratio", ratio(float64(plain.sum.LateChunks), float64(plain.sum.Chunks)), plain.sum.Chunks)
	ms.set("driver.late_max_us", float64(plain.sum.LateMax)/1e3, plain.sum.Chunks)
	ms.setMedian("driver.digest_p50_us", p50, plain.sum.Polled)
	ms.setMedian("driver.digest_p99_us", p99, plain.sum.Polled)
	ms.set("engine.blocks", float64(plain.sum.Blocks), plain.sum.Offered)
	ms.set("engine.dropped_per_kpkt", ratio(float64(plain.sum.Dropped)*1000, float64(plain.sum.Offered)), plain.sum.Offered)
	ms.set("engine.fail_ratio", ratio(float64(plain.sum.Failed+traced.sum.Failed), float64(plain.sum.Offered+traced.sum.Offered)), plain.sum.Offered+traced.sum.Offered)
	ms.set("timerwheel.expiries_per_kpkt", ratio(float64(plain.sum.Stats.WheelExpiries)*1000, float64(plain.sum.Pkts)), plain.sum.Pkts)
	casc := 0
	for _, c := range plain.sum.Stats.WheelCascades {
		casc += c
	}
	ms.set("timerwheel.cascades_per_kpkt", ratio(float64(casc)*1000, float64(plain.sum.Pkts)), plain.sum.Pkts)

	// The engine's own push → emit latency needs a session started
	// WithDigestLatency; flow state persists across sessions of one engine.
	if err := on.restart(engine.WithBoundedDigests(), engine.WithDigestLatency()); err != nil {
		return engineSide{}, err
	}
	if _, err := new(series).measure(on, nil); err != nil {
		return engineSide{}, err
	}
	h := on.sess.DigestLatency()
	ms.set("engine.digest_emit_p50_us", float64(h.Quantile(0.50))/1e3, h.Count())
	ms.set("engine.digest_emit_p99_us", float64(h.Quantile(0.99))/1e3, h.Count())

	// Control calls, on the quiescent session.
	const calls = 2000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		sinkSnap = on.sess.Snapshot()
	}
	ms.set("engine.snapshot_ns", float64(time.Since(t0))/calls, calls)
	ghost := flow.Key{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: flow.ProtoTCP} // no such flow in any stream
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		on.sess.Block(ghost)
		on.sess.Unblock(ghost)
	}
	ms.set("engine.block_ns", float64(time.Since(t0))/calls, calls)

	return engineSide{median(plain.ns), plain.sum.Offered + traced.sum.Offered, plain.sum.Failed + traced.sum.Failed, len(plain.ns) + len(traced.ns)}, nil
}

var sinkSnap engine.Snapshot // keeps the Snapshot loop's result live

// series is one kind of segment measured repeatedly: each segment's ns/pkt
// and the sum of their counters.
type series struct {
	ns  []float64
	sum segResult
}

// measure runs one more segment on the rig, span-wrapped when tr is given.
func (x *series) measure(r *rig, tr *tracer) (*segResult, error) {
	r.drv.tr = tr
	s, err := r.drv.segment()
	if err != nil {
		return nil, err
	}
	x.ns = append(x.ns, ratio(float64(s.Wall), float64(s.Pkts)))
	x.sum.add(s)
	return s, nil
}

// add folds one segment's counters into a running sum.
func (a *segResult) add(s *segResult) {
	a.Offered += s.Offered
	a.Pkts += s.Pkts
	a.Dropped += s.Dropped
	a.Blocks += s.Blocks
	a.Failed += s.Failed
	a.Chunks += s.Chunks
	a.RefusedChunks += s.RefusedChunks
	a.LateChunks += s.LateChunks
	a.LateMax = max(a.LateMax, s.LateMax)
	a.GenNS += s.GenNS
	a.FeedNS += s.FeedNS
	a.PollNS += s.PollNS
	a.Polled += s.Polled
	a.Stats.Add(s.Stats)
}

// restart closes the rig's session (if it is still open) and opens another
// on the same engine, with the same generator carrying on where it was.
func (r *rig) restart(opts ...engine.SessionOption) error {
	if err := r.close(); err != nil {
		return err
	}
	sess, err := r.eng.Start(context.Background(), opts...)
	if err != nil {
		return err
	}
	fd, err := sess.NewFeeder()
	if err != nil {
		sess.Close()
		return err
	}
	r.sess = sess
	r.drv.attach(sess, fd)
	return nil
}

// replayed is what one single-goroutine Pipeline replay measured.
type replayed struct {
	ns            float64 // Process (plus the per-burst Sweep) per packet
	allocsPerKpkt float64
	stats         dataplane.Stats
}

// replayProcess runs the workload's own stream (same seed, from the start,
// warm phase included) through one Pipeline on this goroutine, timing
// Process in 256-packet blocks. It sweeps every 32 packets, as a shard
// worker does after every burst.
func replayProcess(w workload, md *model, seed int64, expiry dataplane.ExpiryScheme, n int, tr *tracer) (replayed, error) {
	gen, err := loadgen.NewChurn(w.churnConfig(seed))
	if err != nil {
		return replayed{}, err
	}
	pl, err := dataplane.New(w.deployConfig(md, dataplane.TableCuckoo, expiry))
	if err != nil {
		return replayed{}, err
	}
	src := newBlockSource(gen)
	defer src.stop()
	run := func(ps []pkt.Packet) {
		for i := range ps {
			sinkDigest = pl.Process(ps[i])
			if i%32 == 31 {
				pl.Sweep(ps[i].TS)
			}
		}
	}
	for left := w.WarmPkts; left > 0; left -= blockPkts {
		block := src.next()
		run(block)
		src.recycle(block)
	}
	runtime.GC()
	before := pl.Stats()
	root := int32(-1)
	if tr != nil {
		root = tr.begin(spReplay, -1, 0, now())
	}
	var total int64
	for left := n; left > 0; left -= blockPkts {
		block := src.next()
		t0 := now()
		run(block)
		t1 := now()
		src.recycle(block)
		total += t1 - t0
		if tr != nil {
			tr.end(tr.begin(spProcess, root, 0, t0), t1)
		}
	}
	if tr != nil {
		tr.end(root, now())
	}
	st := subStats(pl.Stats(), before)

	// Allocations are counted over packets copied out beforehand, with the
	// generator goroutine parked (every block it owns filled and unclaimed):
	// the count is process-wide and the generator allocates as it goes.
	probe := make([]pkt.Packet, 0, probePkts)
	for len(probe) < cap(probe) {
		block := src.next()
		probe = append(probe, block...)
		src.recycle(block)
	}
	for len(src.full) < cap(src.full) {
		runtime.Gosched()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	run(probe)
	runtime.ReadMemStats(&ms1)
	return replayed{
		ns:            ratio(float64(total), float64(st.Packets)),
		allocsPerKpkt: ratio(float64(ms1.Mallocs-ms0.Mallocs)*1000, float64(len(probe))),
		stats:         st,
	}, nil
}

var sinkDigest *dataplane.Digest // keeps Process's result live

// blockSource generates the workload's stream on a goroutine of its own, a
// few blocks ahead, so the replaying goroutine's cache holds what a shard
// worker's holds — table and model, not the generator's flow array. The
// engine has the same split: packets arrive from the feeder's core.
type blockSource struct {
	full, empty chan []pkt.Packet
	done        chan struct{}
}

func newBlockSource(gen *loadgen.ChurnGen) *blockSource {
	const ahead = 4 // blocks in flight: enough that neither side waits on the other's jitter
	b := &blockSource{
		full:  make(chan []pkt.Packet, ahead),
		empty: make(chan []pkt.Packet, ahead),
		done:  make(chan struct{}),
	}
	for i := 0; i < ahead; i++ {
		b.empty <- make([]pkt.Packet, blockPkts)
	}
	go func() {
		defer close(b.done)
		for blk := range b.empty {
			for i := range blk {
				blk[i], _ = gen.Next()
			}
			b.full <- blk
		}
	}()
	return b
}

// next returns the next block; the caller hands it back with recycle.
func (b *blockSource) next() []pkt.Packet     { return <-b.full }
func (b *blockSource) recycle(p []pkt.Packet) { b.empty <- p }

// stop ends the generator goroutine and waits for it. Every block must
// have been recycled.
func (b *blockSource) stop() {
	close(b.empty)
	<-b.done
}

// replayShadow runs the same stream through the stage-at-a-time shadow:
// warm phase untimed, then n packets with one child span per stage per block.
func replayShadow(w workload, md *model, seed int64, n int, tr *tracer) (*shadow, error) {
	gen, err := loadgen.NewChurn(w.churnConfig(seed))
	if err != nil {
		return nil, err
	}
	sh := newShadow(w, md)
	src := newBlockSource(gen)
	defer src.stop()
	for left := w.WarmPkts; left > 0; left -= blockPkts {
		block := src.next()
		sh.block(block)
		src.recycle(block)
	}
	runtime.GC()
	sh.tr, sh.root = tr, tr.begin(spReplay, -1, 0, now())
	for left := n; left > 0; left -= blockPkts {
		block := src.next()
		sh.block(block)
		src.recycle(block)
	}
	tr.end(sh.root, now())
	sh.tr = nil
	return sh, nil
}

// microLayers times single calls in loops over the shadow's live working
// set: the keys resident in its table after the replay, and the feature
// vectors captured at its real window ends.
func microLayers(w workload, md *model, sh *shadow, o options, ms *metricSet) {
	rng := rand.New(rand.NewSource(o.seed))
	want := 200_000 // calls per loop, at least
	if o.quick {
		want /= 10
	}

	// Resident keys, spread over the whole table and visited in random order
	// so a table larger than the cache misses as it does under traffic.
	var keys []flow.Key
	stride := max(1, sh.store.Occupied()/want)
	i := 0
	sh.store.Walk(func(e *flowtable.Entry) {
		if i%stride == 0 {
			keys = append(keys, e.Key())
		}
		i++
	})
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	rounds := max(1, want/max(1, len(keys)))

	timeHits := func(st flowtable.Store) float64 {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				sinkEntry, _ = st.Acquire(k)
			}
		}
		return ratio(float64(time.Since(t0)), float64(rounds*len(keys)))
	}
	ms.set("flowtable.acquire_hit_ns", timeHits(sh.store), int64(rounds*len(keys)))

	var chNS int64
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			sinkHash += k.Reverse().Canonical().Hash()
		}
	}
	chNS = int64(time.Since(t0))
	ms.set("flow.canonical_hash_ns", ratio(float64(chNS), float64(rounds*len(keys))), int64(rounds*len(keys)))

	// Fresh inserts and releases: new keys into the free cells, a quarter of
	// the free space at a time so the table's load stays the workload's.
	batch := min(want, max(1, (w.Slots-sh.store.Occupied())/4))
	fresh := make([]flow.Key, batch)
	ents := make([]*flowtable.Entry, batch)
	var acqNS, relNS time.Duration
	var inserted int64
	for inserted < int64(want) {
		for j := range fresh {
			fresh[j] = flow.Key{
				SrcIP: flow.Addr(0xC0000000 | rng.Uint32()>>4), DstIP: flow.Addr(0xE0000000 | rng.Uint32()>>4),
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 9, Proto: flow.ProtoUDP,
			}.Canonical()
		}
		t0 := time.Now()
		for j, k := range fresh {
			e, st := sh.store.Acquire(k)
			if st == flowtable.StatusFresh {
				e.SID = 1
			}
			ents[j] = e
		}
		acqNS += time.Since(t0)
		for j, k := range fresh { // re-resolve entries a later insert displaced
			if e := ents[j]; e != nil && e.Key() != k {
				ents[j], _ = sh.store.Acquire(k)
			}
		}
		t0 = time.Now()
		for _, e := range ents {
			if e != nil && e.SID != 0 {
				sh.store.Release(e)
			}
		}
		relNS += time.Since(t0)
		inserted += int64(batch)
	}
	ms.set("flowtable.acquire_fresh_ns", ratio(float64(acqNS), float64(inserted)), inserted)
	ms.set("flowtable.release_ns", ratio(float64(relNS), float64(inserted)), inserted)

	// The direct-mapped scheme over the same keys, for the scheme decision.
	direct := flowtable.NewDirect(w.Slots)
	for _, k := range keys {
		if e, st := direct.Acquire(k); st == flowtable.StatusFresh {
			e.SID = 1
		}
	}
	ms.set("flowtable.direct_acquire_ns", timeHits(direct), int64(rounds*len(keys)))

	// One feature-table (TCAM) lookup, over the (SID, register value) pairs
	// MarksInto forms at the captured window ends.
	type probe struct {
		slot     int
		sid, val uint32
	}
	var probes []probe
	for j, sid := range sh.winSID {
		for slot, f := range md.c.SlotFeatures(sid) {
			if f >= 0 {
				shift := uint(0)
				if f < len(md.m.Shifts) {
					shift = md.m.Shifts[f]
				}
				probes = append(probes, probe{slot, uint32(sid), features.RegValue(sh.winVec[j][f], shift, md.c.ValueBits)})
			}
		}
	}
	rounds = max(1, want/max(1, len(probes)))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range probes {
			a, _ := md.c.FeatureTables[p.slot].Lookup(p.sid, p.val)
			sinkHash += uint32(a)
		}
	}
	ms.set("tcam.lookup_ns", ratio(float64(time.Since(t0)), float64(rounds*len(probes))), int64(rounds*len(probes)))
}

var (
	sinkEntry *flowtable.Entry
	sinkHash  uint32
)

// waterfall lays out the layer budget ROADMAP asks for: where the end-to-end
// nanoseconds per packet go, innermost layer first.
func waterfall(ms *metricSet, tot [numSpanNames]spanTotals, n int) []string {
	v := func(name string) float64 { return ms.m[name].Value }
	var out []string
	for name := uint8(spAcquire); name <= spAdvance; name++ {
		if tot[name].Count > 0 {
			out = append(out, fmt.Sprintf("    %-28s %9.2f", spanNames[name], ratio(float64(tot[name].Total), float64(n))))
		}
	}
	return append(out,
		fmt.Sprintf("  %-30s %9.2f  (sum of the stages above)", "dataplane.stage_sum_ns", v("dataplane.stage_sum_ns")),
		fmt.Sprintf("  %-30s %9.2f  (process_ns - stage sum: unexplained)", "dataplane.residual_ns", v("dataplane.residual_ns")),
		fmt.Sprintf("  %-30s %9.2f  (one Pipeline, one goroutine)", "dataplane.process_ns", v("dataplane.process_ns")),
		fmt.Sprintf("  %-30s %9.2f  (ns_per_pkt - process_ns: rings, worker loop, digest hand-off)", "engine.overhead_ns", v("engine.overhead_ns")),
		fmt.Sprintf("%-32s %9.2f  (untraced, this run)", "engine.ns_per_pkt", v("engine.ns_per_pkt")),
		fmt.Sprintf("%-32s %9.2f  (span-wrapped segments - plain segments)", "engine.trace_overhead_ns", v("engine.trace_overhead_ns")),
	)
}
