package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/flow"
	"splidt/internal/loadgen"
	"splidt/internal/pkt"
)

// dueRing remembers, for the most recent chunks handed to the engine, the
// packet-time span each covered and the wall instant it was due. A digest
// carries only the packet time of the packet that triggered it (Digest.At);
// the ring maps that back to the due instant of the chunk the packet rode
// in. Packet time is non-decreasing along the stream, so the chunks' spans
// are ordered and a binary search finds the chunk. When consecutive chunks
// share a packet-time tick the earliest is taken: the latency reported is
// never shorter than the true one.
type dueRing struct {
	first, last []time.Duration
	due         []int64
	mask        int64
	n           int64 // chunks pushed so far
}

func newDueRing(size int) *dueRing {
	if size&(size-1) != 0 {
		panic("dueRing: size must be a power of two")
	}
	return &dueRing{
		first: make([]time.Duration, size),
		last:  make([]time.Duration, size),
		due:   make([]int64, size),
		mask:  int64(size - 1),
	}
}

func (r *dueRing) push(first, last time.Duration, due int64) {
	i := r.n & r.mask
	r.first[i], r.last[i], r.due[i] = first, last, due
	r.n++
}

// lookup returns the due instant of the chunk that carried packet time at.
// ok is false when that chunk has already been overwritten (or was never
// pushed): the caller counts the digest as failed, it does not drop it.
func (r *dueRing) lookup(at time.Duration) (due int64, ok bool) {
	lo := r.n - int64(len(r.due))
	if lo < 0 {
		lo = 0
	}
	if r.n == lo || at < r.first[lo&r.mask] {
		return 0, false
	}
	i := lo + int64(sort.Search(int(r.n-lo), func(j int) bool {
		return r.last[(lo+int64(j))&r.mask] >= at
	}))
	if i == r.n {
		return 0, false
	}
	return r.due[i&r.mask], true
}

// lateAfter is how long after it could first have been sent a chunk may be
// sent before the driver counts as late.
const lateAfter = 100 * time.Microsecond

// pacer is the open-loop schedule: chunk i is due at start + i × period,
// whatever happened to the chunks before it. It also keeps the driver's own
// lateness, so a latency the engine caused can be told from one a slow
// generator caused: a chunk counts as late when it was handed over more
// than lateAfter past the first instant it could have been — its due
// instant, or the instant the engine released the driver from the previous
// chunk's Feed, whichever came last. Time spent blocked in backpressure is
// the engine's and shows up in the digest latency, not here.
type pacer struct {
	start   int64   // ns
	period  float64 // ns per chunk
	late    int64
	lateMax int64
}

func (p *pacer) due(i int64) int64 { return p.start + int64(float64(i)*p.period) }

// sent accounts chunk i as handed over at instant at, the driver having
// been free to work on it since instant free.
func (p *pacer) sent(i, free, at int64) {
	from := p.due(i)
	if free > from {
		from = free
	}
	l := at - from
	if l > int64(lateAfter) {
		p.late++
	}
	if l > p.lateMax {
		p.lateMax = l
	}
}

// segResult is what one measured segment observed, raw.
type segResult struct {
	Offered int64         // packets handed to Feed
	Pkts    int64         // packets the shard processed
	Wall    time.Duration // first chunk → shard has processed the last packet
	Mallocs uint64        // whole-process: meaningful only when the generator did not run (allocProbe)
	Lat     []float64     // digest latency samples, µs, ascending
	Stats   dataplane.Stats

	Dropped  int64 // packets of deliberately blocked flows (not failures)
	Blocks   int64
	Failed   int64 // rejects + quarantine drops + discarded + conservation gap + unmapped digests
	Unmapped int64 // digests whose chunk had left the due ring

	// Chunks handed over; how many of them Feed refused at least once
	// (backpressure) and how many the driver itself sent late.
	Chunks, RefusedChunks, LateChunks int64
	LateMax                           time.Duration

	// Traced runs only: feeder-thread time by activity.
	GenNS, FeedNS, PollNS int64
	Polled                int64
}

// driver is the one producer: it pulls packets from the generator, hands
// them to its feeder in chunks (paced or closed by backpressure), drains
// digests with Poll on the same thread, and issues block verdicts.
type driver struct {
	w    workload
	sess *engine.Session
	fd   *engine.Feeder
	gen  *loadgen.ChurnGen
	tr   *tracer

	chunk []pkt.Packet
	dbuf  []dataplane.Digest
	ring  *dueRing

	offered   int64 // packets offered since the session started
	nextBlock int64
	held      flow.Key // the flow under a verdict, until offered reaches liftAt
	liftAt    int64
	holding   bool

	seg    *segResult // counters of the segment in progress
	segID  int32
	segSpn int32
}

func newDriver(w workload, gen *loadgen.ChurnGen) *driver {
	return &driver{
		w: w, gen: gen,
		chunk: make([]pkt.Packet, w.Chunk),
		dbuf:  make([]dataplane.Digest, 512),
		ring:  newDueRing(4096),
	}
}

// attach points the driver at a (new) session and its feeder. Verdicts
// outstanding on an earlier session died with that session's filter.
func (d *driver) attach(sess *engine.Session, fd *engine.Feeder) {
	d.sess, d.fd = sess, fd
	d.holding = false
	d.nextBlock = d.offered + int64(d.w.BlockEvery)
}

// probePkts is the size of the pre-generated allocation probe.
const probePkts = 1 << 17

// pregen draws the next n packets of the stream into a buffer. Counting
// allocations, or live heap, around a window in which the generator runs
// would count the generator's own: its wheel buckets keep growing for
// millions of packets. A window fed from a buffer filled beforehand counts
// the engine alone.
func (d *driver) pregen(n int) []pkt.Packet {
	buf := make([]pkt.Packet, n)
	for i := range buf {
		buf[i], _ = d.gen.Next()
	}
	return buf
}

// warm runs the unmeasured run-in from a pre-generated buffer, unpaced
// whatever the workload's rate.
func (d *driver) warm(buf []pkt.Packet) error {
	_, err := d.run(len(buf), 0, buf)
	return err
}

// segment runs one measured segment of the workload's fixed packet count,
// the generator running inline on the producer thread.
func (d *driver) segment() (*segResult, error) {
	d.segID++
	return d.run(d.w.SegPkts, d.w.Rate, nil)
}

// allocProbe feeds probePkts pre-generated packets the way segment feeds
// generated ones; the result's Mallocs is the engine's (and the driver's
// few) alone.
func (d *driver) allocProbe() (*segResult, error) {
	buf := d.pregen(probePkts)
	return d.run(len(buf), d.w.Rate, buf)
}

// run offers pkts packets — from buf when it is given, else from the
// generator as it goes — and waits until the shard has processed them all.
func (d *driver) run(pkts int, rate float64, buf []pkt.Packet) (*segResult, error) {
	runtime.GC() // start every segment from the same heap state
	res := &segResult{Lat: make([]float64, 0, 1<<16)}
	d.seg = res
	snap0 := d.sess.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	traced := d.tr != nil
	t0 := now()
	if traced {
		d.segSpn = d.tr.begin(spSegment, -1, d.segID, t0)
	}
	var pc pacer
	if rate > 0 {
		pc = pacer{start: t0, period: float64(d.w.Chunk) / rate * 1e9}
	}
	for sent, ci := 0, int64(0); sent < pkts; ci++ {
		var free int64
		if rate > 0 {
			free = now()
		}
		c := d.chunk[:min(len(d.chunk), pkts-sent)]
		if buf != nil {
			c = buf[sent : sent+len(c)]
		} else {
			d.generate(c)
		}
		// Open loop: the chunk is due on schedule. Closed loop: it is due
		// the moment it exists, so a wait in Feed counts towards latency.
		var due int64
		if rate > 0 {
			due = pc.due(ci)
			d.waitDue(due)
			pc.sent(ci, free, now())
		} else {
			due = now()
		}
		d.ring.push(c[0].TS, c[len(c)-1].TS, due)
		if err := d.feed(c); err != nil {
			return nil, err
		}
		d.poll()
		sent += len(c)
		d.offered += int64(len(c))
		if d.holding && d.offered >= d.liftAt {
			d.sess.Unblock(d.held)
			d.holding = false
		}
		if d.w.BlockEvery > 0 && d.offered >= d.nextBlock {
			d.blockOne()
			d.nextBlock += int64(d.w.BlockEvery)
		}
	}
	if err := d.fd.FeedAll(nil); err != nil { // push out the staged partial burst
		return nil, err
	}
	snap1, err := d.quiesce(snap0.Fed + int64(pkts))
	t1 := now()
	if traced {
		d.tr.end(d.segSpn, t1)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	res.Offered = int64(pkts)
	res.Wall = time.Duration(t1 - t0)
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.Stats = subStats(snap1.Stats, snap0.Stats)
	res.Pkts = int64(res.Stats.Packets)
	res.Dropped = snap1.Dropped - snap0.Dropped
	res.LateChunks, res.LateMax = pc.late, time.Duration(pc.lateMax)

	// Every digest the shard emitted must reach Poll, exactly once.
	deadline := time.Now().Add(5 * time.Second)
	for res.Polled < int64(res.Stats.Digests) && time.Now().Before(deadline) {
		d.poll()
		runtime.Gosched()
	}
	undelivered := int64(res.Stats.Digests) - res.Polled
	if undelivered < 0 {
		undelivered = -undelivered // a digest delivered twice is as wrong as one lost
	}
	gap := (snap1.Fed - snap0.Fed) - res.Pkts - res.Dropped -
		(snap1.QuarantineDropped - snap0.QuarantineDropped)
	if gap < 0 {
		gap = -gap
	}
	res.Failed = int64(res.Stats.Collisions) + // cuckoo rejects: packets denied flow state
		(snap1.QuarantineDropped - snap0.QuarantineDropped) +
		(snap1.DiscardedStaged - snap0.DiscardedStaged) +
		gap + res.Unmapped + undelivered
	sort.Float64s(res.Lat)
	d.seg = nil
	return res, nil
}

// generate fills the chunk from the generator, as a span when traced.
func (d *driver) generate(c []pkt.Packet) {
	var g0 int64
	if d.tr != nil {
		g0 = now()
	}
	for i := range c {
		c[i], _ = d.gen.Next()
	}
	if d.tr != nil {
		g1 := now()
		d.tr.end(d.tr.begin(spGen, d.segSpn, d.segID, g0), g1)
		d.seg.GenNS += g1 - g0
	}
}

// waitDue spins to the chunk's due instant, draining digests meanwhile: the
// one producer thread is also the controller thread. It spins without
// yielding — a sleep or a yield would make the schedule as coarse as the
// scheduler's wake-up, which is the artefact loadgen.Run's paced mode has.
func (d *driver) waitDue(due int64) {
	var w0 int64
	if d.tr != nil {
		w0 = now()
	}
	for now() < due {
		d.pollQuiet()
	}
	if d.tr != nil {
		d.tr.end(d.tr.begin(spWaitDue, d.segSpn, d.segID, w0), now())
	}
}

// feed hands the chunk over, retrying through backpressure: it never sheds.
func (d *driver) feed(c []pkt.Packet) error {
	refused := false
	for off := 0; off < len(c); {
		var f0 int64
		if d.tr != nil {
			f0 = now()
		}
		n, err := d.fd.Feed(c[off:])
		if d.tr != nil && n > 0 {
			f1 := now()
			d.tr.end(d.tr.begin(spFeed, d.segSpn, d.segID, f0), f1)
			d.seg.FeedNS += f1 - f0
		}
		off += n
		switch {
		case err == nil:
		case errors.Is(err, engine.ErrBackpressure):
			refused = true
			d.pollQuiet()
			// Yield, never spin: the session's digest sink is a third
			// goroutine, and with GOMAXPROCS = 2 a spinning producer starves
			// it until the worker blocks on a full digest channel.
			runtime.Gosched()
		default:
			return fmt.Errorf("feed: %w", err)
		}
	}
	d.seg.Chunks++
	if refused {
		d.seg.RefusedChunks++
	}
	return nil
}

// poll drains pending digests and times each against its chunk's due
// instant; traced runs also record the call as a span.
func (d *driver) poll() {
	if d.tr == nil {
		d.pollQuiet()
		return
	}
	p0 := now()
	got := d.pollQuiet()
	p1 := now()
	if got > 0 {
		d.tr.end(d.tr.begin(spPoll, d.segSpn, d.segID, p0), p1)
		d.seg.PollNS += p1 - p0
	}
}

func (d *driver) pollQuiet() int {
	got := 0
	for {
		n := d.sess.Poll(d.dbuf)
		if n == 0 {
			return got
		}
		got += n
		d.recordDigests(d.dbuf[:n], now())
		if n < len(d.dbuf) {
			return got
		}
	}
}

// recordDigests times digests received at instant now against the due
// instant of the chunk each one's packet rode in. A digest whose chunk has
// left the ring still counts as polled, and as a failure: it is never
// dropped from the books.
func (d *driver) recordDigests(ds []dataplane.Digest, now int64) {
	for i := range ds {
		due, ok := d.ring.lookup(ds[i].At)
		if !ok {
			d.seg.Unmapped++
			continue
		}
		d.seg.Lat = append(d.seg.Lat, float64(now-due)/1e3)
	}
	d.seg.Polled += int64(len(ds))
}

// blockOne installs a block verdict on a random live flow; run lifts it
// BlockHold packets later.
func (d *driver) blockOne() {
	d.held = d.gen.SampleActive()
	d.sess.Block(d.held)
	d.liftAt, d.holding = d.offered+int64(d.w.BlockHold), true
	d.seg.Blocks++
}

// quiesce waits until every packet fed so far is accounted for by the shard
// (processed, dropped as blocked, or drained by a quarantined worker) and
// returns the snapshot that shows it.
func (d *driver) quiesce(fed int64) (engine.Snapshot, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := d.sess.Snapshot()
		if s.Fed != fed {
			return s, fmt.Errorf("session accepted %d packets, driver offered %d", s.Fed, fed)
		}
		if int64(s.Stats.Packets)+s.Dropped+s.QuarantineDropped+s.DiscardedStaged >= fed {
			return s, nil
		}
		if err := d.sess.Err(); err != nil {
			return s, fmt.Errorf("session fault: %w", err)
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("shard did not drain: fed %d, processed %d, dropped %d",
				fed, s.Stats.Packets, s.Dropped)
		}
		d.pollQuiet()
		runtime.Gosched()
	}
}

// subStats returns now − prev field-wise.
func subStats(now, prev dataplane.Stats) dataplane.Stats {
	d := dataplane.Stats{
		Packets:        now.Packets - prev.Packets,
		ControlPackets: now.ControlPackets - prev.ControlPackets,
		Digests:        now.Digests - prev.Digests,
		Collisions:     now.Collisions - prev.Collisions,
		RecircBytes:    now.RecircBytes - prev.RecircBytes,
		Evictions:      now.Evictions - prev.Evictions,
		Kicks:          now.Kicks - prev.Kicks,
		StashInserts:   now.StashInserts - prev.StashInserts,
		WheelExpiries:  now.WheelExpiries - prev.WheelExpiries,
	}
	for i := range d.WheelCascades {
		d.WheelCascades[i] = now.WheelCascades[i] - prev.WheelCascades[i]
	}
	return d
}
