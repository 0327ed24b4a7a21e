// Package engine is the sharded multi-worker execution layer of the SpliDT
// reproduction: it drives N independent dataplane.Pipeline replicas at once,
// the software analogue of a multi-pipe switch ASIC (or an RSS-sharded
// software dataplane à la ndn-dpdk's forwarder).
//
// Architecture: packets enter through a Session (Engine.Start), via one or
// more producer handles (Session.NewFeeder; Session.Feed wraps a default
// one). Each feeder assigns each packet to a shard by its precomputed
// direction-symmetric dispatch hash — so every packet of a flow (and hence
// all of its register state and its digest) lives on exactly one shard —
// and accumulates them into fixed-size bursts in private per-shard staging.
// Bursts move to shard workers through bounded multi-producer
// single-consumer rings (CAS-reserved slots, the rte_ring MP shape);
// drained bursts recycle back through the owning feeder's private SPSC free
// ring, so the steady-state path allocates nothing and concurrent producers
// share no lock. Each worker owns one pipeline replica and processes bursts
// in arrival order, which — with each flow confined to one feeder —
// preserves per-flow packet order end to end. Each worker pushes its digests
// into a bounded SPSC ring of its own, and Session.Poll (or the Digests
// adapter) drains the rings directly while traffic is still moving, so a
// controller can consume classifications live and push ActionBlock verdicts
// back into the dispatch stage's drop filter (Session.Block) mid-run; a
// worker whose ring is full spills it into the session's backlog rather than
// wait for a consumer. Blocking also
// evicts the flow's register slot via a per-shard eviction mailbox, and
// workers drive the dataplane's flow-table ageing sweep once per burst
// from a monotone packet-time clock — so long-lived sessions reclaim slots
// of blocked and dead flows instead of leaking them (Stats.Evictions).
//
// Engine.Run remains as a thin batch wrapper over Start/Feed/Close: it
// drains a Source through a session and returns the merged Result, with a
// digest stream multiset-identical to what the streaming path emits.
//
// Correctness contract: because flows never cross shards and per-flow order
// is preserved, an engine run is digest-equivalent to feeding the same
// workload through one pipeline, as long as register-slot collisions do not
// couple flows that land on different shards (collision-free operation is
// the regime the equivalence tests pin down; Stats.Collisions reports it).
// Close returns digests merged into a single deterministic stream ordered
// by classification time, and per-shard Stats sum into the totals a single
// pipeline would have counted.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/flow"
	"splidt/internal/metrics"
	"splidt/internal/pkt"
	"splidt/internal/telemetry/flight"
	"splidt/internal/timerwheel"
)

// Source yields packets in global arrival order. trace.Stream implements it
// lazily; SliceSource adapts a pre-materialised sequence.
type Source interface {
	Next() (pkt.Packet, bool)
}

// SliceSource is a Source over an in-memory packet sequence (benchmarks use
// it to keep generation cost out of the measured path).
type SliceSource struct {
	Pkts []pkt.Packet
	pos  int
}

// Next returns the next packet until the slice is exhausted.
func (s *SliceSource) Next() (pkt.Packet, bool) {
	if s.pos >= len(s.Pkts) {
		return pkt.Packet{}, false
	}
	p := s.Pkts[s.pos]
	s.pos++
	return p, true
}

// ShiftSource wraps a Source, offsetting every packet timestamp by a fixed
// Offset — how a driver replays one trace as successive later waves. The
// flow-table ageing sweep runs on packet time, so a wave re-fed with its
// original timestamps would leave the monotone sweep clock frozen at the
// previous wave's end and the sweep inert; shifting each wave past the
// last keeps packet time advancing the way real repeat traffic would.
// Max reports the highest shifted timestamp yielded so far — after a wave
// drains, it is the natural Offset for the next one.
type ShiftSource struct {
	Src    Source
	Offset time.Duration
	max    time.Duration
}

// Next yields the next packet with its timestamp shifted.
func (s *ShiftSource) Next() (pkt.Packet, bool) {
	p, ok := s.Src.Next()
	if !ok {
		return p, false
	}
	p.TS += s.Offset
	if p.TS > s.max {
		s.max = p.TS
	}
	return p, true
}

// Max returns the highest shifted timestamp Next has yielded.
func (s *ShiftSource) Max() time.Duration { return s.max }

// Config sizes an engine.
type Config struct {
	// Deploy is the deployment every shard replicates. Its FlowSlots is the
	// total register budget, divided evenly among shards (dataplane.NewShards).
	Deploy dataplane.Config
	// Shards is the worker/replica count. Default: GOMAXPROCS.
	Shards int
	// Burst is the packets-per-burst batch size. Default 32 (the DPDK
	// convention).
	Burst int
	// Queue is the per-shard queue depth in bursts. It bounds feed-side
	// runahead: a full queue backpressures Feed. Default 8.
	Queue int
	// DigestBuffer is the capacity, in digests, of each shard's digest ring
	// (rounded up to a power of two): how far a worker can run ahead of the
	// consumer before it spills into the session's unbounded backlog. It is
	// also the buffer of the channel Digests() returns. Default 256.
	DigestBuffer int
	// ShutdownTimeout bounds every session teardown wait — Close/abort
	// waiting on workers, a feeder flush pushing into a stuck shard, a
	// Redeploy waiting for adoption. On expiry the wait is abandoned with a
	// typed cause error (ErrShutdownTimeout / ErrRedeployTimeout) instead of
	// wedging the caller. Default 5s.
	ShutdownTimeout time.Duration
	// WatchdogInterval is the wall-clock period of the session health
	// watchdog, which marks shards degraded when a full interval passes with
	// input queued but no burst completed (Session.Health). Default 20ms.
	WatchdogInterval time.Duration
	// FlightRecorder is the per-shard flight-recorder depth in events
	// (internal/telemetry/flight), rounded up to a power of two. The
	// recorder logs burst boundaries, sweep reclaims, eviction batches,
	// epoch adoptions, watchdog flags, and quarantines; Engine.FlightLog
	// snapshots it live, and a shard panic dumps it into
	// ShardPanicError.Postmortem. 0 selects flight.DefaultDepth (256);
	// negative disables recording entirely.
	FlightRecorder int
}

// Result is one engine run's (or closed session's) merged output.
type Result struct {
	// Digests from all shards in one deterministic stream, ordered by
	// classification time (ties broken by flow key), independent of worker
	// scheduling.
	Digests []dataplane.Digest
	// Stats is the sum of per-shard counters for this run.
	Stats dataplane.Stats
	// PerShard holds each shard's counters for this run, indexed by shard.
	PerShard []dataplane.Stats
	// Throughput reports wall-clock rates for this run.
	Throughput metrics.Throughput
	// Dropped counts packets discarded because their flow was blocked
	// (Session.Block) while the session ran — at the dispatch stage, or at
	// a worker for packets already queued when the verdict landed.
	Dropped int64
}

// The published block's word layout: dataplane.Stats flattened (the scalar
// counters, then WheelCascades), then the gauges — occupied and stashed
// table cells, and the worker's packet-time clock.
const (
	pubDigests  = 2 // Stats.Digests
	pubCascades = 9 // first WheelCascades word
	pubActive   = pubCascades + timerwheel.DefaultLevels - 1
	pubStashed  = pubActive + 1
	pubClock    = pubStashed + 1
	pubWords    = pubClock + 1
)

// pubBlock is a worker's last published observation of its pipeline: a
// fixed, sequence-counted block of atomic words the worker rewrites after
// every burst (and on exit) and Snapshot/ActiveFlows/Health read without
// touching anything the worker owns. seq is odd while a publish is in
// flight; a reader retries until it sees the same even seq on both sides of
// its word loads, so every read is one publish's values — coherent per
// shard. Every access is atomic (a plain-data seqlock is a data race). seq
// doubles as the watchdog's liveness signal: it moves with every burst.
type pubBlock struct {
	seq atomic.Uint64
	w   [pubWords]atomic.Int64
	// last mirrors w for the writer, which stores only the words a burst
	// changed (usually Packets and one or two more). Writer-private.
	last [pubWords]int64
}

// store publishes w. Single writer: the shard worker, or Start before the
// worker exists.
//
//splidt:hotpath
func (p *pubBlock) store(w *[pubWords]int64) {
	seq := p.seq.Load()
	p.seq.Store(seq + 1)
	for i, v := range w {
		if v != p.last[i] {
			p.last[i] = v
			p.w[i].Store(v)
		}
	}
	p.seq.Store(seq + 2)
}

// load returns the words of one publish.
func (p *pubBlock) load() (w [pubWords]int64) {
	for {
		if seq := p.seq.Load(); seq&1 == 0 {
			for i := range w {
				w[i] = p.w[i].Load()
			}
			if p.seq.Load() == seq {
				return w
			}
		}
		runtime.Gosched() // a publish is in flight; let the writer finish
	}
}

// statsWords flattens st into the block's leading words — the publish side.
//
//splidt:hotpath
//splidt:stats-complete dataplane.Stats
func statsWords(st *dataplane.Stats, w *[pubWords]int64) {
	w[0], w[1], w[2] = int64(st.Packets), int64(st.ControlPackets), int64(st.Digests)
	w[3], w[4], w[5] = int64(st.Collisions), int64(st.RecircBytes), int64(st.Evictions)
	w[6], w[7], w[8] = int64(st.Kicks), int64(st.StashInserts), int64(st.WheelExpiries)
	for i, c := range st.WheelCascades {
		w[pubCascades+i] = int64(c)
	}
}

// wordsStats is statsWords' inverse — the read side.
//
//splidt:stats-complete dataplane.Stats
func wordsStats(w *[pubWords]int64) dataplane.Stats {
	st := dataplane.Stats{
		Packets: int(w[0]), ControlPackets: int(w[1]), Digests: int(w[2]),
		Collisions: int(w[3]), RecircBytes: int(w[4]), Evictions: int(w[5]),
		Kicks: int(w[6]), StashInserts: int(w[7]), WheelExpiries: int(w[8]),
	}
	for i := range st.WheelCascades {
		st.WheelCascades[i] = int(w[pubCascades+i])
	}
	return st
}

type shardState struct {
	pl   *dataplane.Pipeline
	in   *mpscRing // filled bursts: feeders (many) → worker (one)
	done atomic.Bool

	pub pubBlock

	// out is the session's digest ring for this shard (set by Start) and
	// digest the scratch ProcessInto fills before it is pushed there.
	// Worker-private.
	out    *digestRing
	digest dataplane.Digest

	// Eviction mailbox: Session.Block/Evict enqueue flow keys here from any
	// goroutine; the worker — the only goroutine allowed to touch its
	// pipeline — drains it between bursts (and while idle, so blocking
	// frees state even when no traffic is flowing). evictN is the
	// emptiness fast path the worker checks each iteration.
	evictMu      sync.Mutex
	evictQ       []flow.Key
	evictScratch []flow.Key // worker-owned drain buffer, reused
	evictN       atomic.Int64

	// sweepNow is the worker's monotone packet-time clock: the newest
	// timestamp it has processed, fed to the pipeline's ageing Sweep after
	// each burst. Worker-private.
	sweepNow time.Duration

	// latHist, when non-nil, is this session's digest-latency histogram for
	// the shard (WithDigestLatency): the worker records feeder-handoff →
	// digest-emission wall time for every digest it emits. Worker-writes,
	// observer-reads — Hist.Record is a lone atomic add, so live quantile
	// reads need no coordination. Set by Start, nil when latency is off.
	latHist *metrics.Hist

	// hold, when non-nil, gates the worker before each burst — a test hook
	// that makes backpressure deterministic. Always nil in production.
	hold chan struct{}

	// health is the shard's observable lifecycle state (HealthState values).
	// The worker stores ShardQuarantined on panic; the session watchdog
	// exchanges ShardRunning and ShardDegraded on stall evidence. Reset by
	// Start (quarantine does not outlive the session that panicked —
	// whatever state the panic left in the replica is the same state a
	// crashed-and-restarted pipe would resume from).
	health atomic.Int32
	// quarDrops counts packets this shard discarded while quarantined: the
	// remainder of the burst the panic interrupted plus every packet drained
	// from the ring afterwards.
	quarDrops atomic.Int64
	// pendingDep is the deployment published by Session.Redeploy and not yet
	// adopted by this worker; nil otherwise. epoch is the deployment epoch
	// the shard's replica currently runs.
	pendingDep atomic.Pointer[deployment]
	epoch      atomic.Uint64

	// rec is the shard's flight recorder (nil when disabled by config).
	// Written by the worker at burst/sweep/evict/adopt boundaries and —
	// rarely — by the session watchdog and the panic fence; the ring's
	// fetch-add claim keeps those safe without locking the worker.
	rec *flight.Ring
}

// evict enqueues a controller-initiated slot reclaim for the worker to
// apply. Safe from any goroutine.
func (s *shardState) evict(k flow.Key) {
	s.evictMu.Lock()
	s.evictQ = append(s.evictQ, k)
	s.evictMu.Unlock()
	s.evictN.Add(1)
}

// drainEvictions applies every queued eviction to the shard's pipeline.
// Worker-only. Returns how many slots it reclaimed (so the caller knows to
// publish a fresh snapshot when the count is non-zero).
func (s *shardState) drainEvictions() int {
	if s.evictN.Load() == 0 {
		return 0
	}
	s.evictMu.Lock()
	keys := append(s.evictScratch[:0], s.evictQ...)
	s.evictQ = s.evictQ[:0]
	s.evictN.Store(0)
	s.evictMu.Unlock()
	s.evictScratch = keys[:0]
	freed := 0
	for _, k := range keys {
		if s.pl.Evict(k) {
			freed++
		}
	}
	if freed > 0 && s.rec != nil {
		s.rec.Record(flight.KindEvict, s.sweepNow, int64(freed), int64(len(keys)))
	}
	return freed
}

// Engine drives sharded pipeline replicas. Construct with New. An Engine
// supports any number of sequential sessions (flow state persists across
// them, like a switch that stays up between traces) but at most one session
// at a time; all concurrency lives inside the session.
type Engine struct {
	cfg    Config
	shards []*shardState
	active atomic.Bool // a session is running

	// deployEpoch is the monotone deployment-epoch counter: 0 is the tree
	// the engine was built with, each Session.Redeploy takes the next value.
	// Engine-scoped (not per session) so epochs stay unique across a
	// session boundary that races a redeploy.
	deployEpoch atomic.Uint64

	// defFree is the engine-owned burst pool every session's default feeder
	// recycles through, built on first Start. Sessions are exclusive and a
	// closed session's workers have recycled every burst home, so reuse
	// across sequential sessions is safe — Run/Start-per-call patterns stay
	// allocation-free after the first session, as they were before feeders.
	defFree []*spscRing
}

// New validates the deployment and builds one pipeline replica per shard
// (sharing the frozen compiled tables). Burst pools are per producer, so
// they are allocated when a session constructs its feeders (NewFeeder),
// not here; the steady-state feed path still allocates nothing.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 32
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	if cfg.DigestBuffer <= 0 {
		cfg.DigestBuffer = 256
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 5 * time.Second
	}
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = 20 * time.Millisecond
	}
	pls, err := dataplane.NewShards(cfg.Deploy, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{cfg: cfg, shards: make([]*shardState, cfg.Shards)}
	for i, pl := range pls {
		s := &shardState{
			pl: pl,
			in: newMPSCRing(cfg.Queue),
		}
		if cfg.FlightRecorder >= 0 {
			s.rec = flight.New(cfg.FlightRecorder)
		}
		e.shards[i] = s
	}
	return e, nil
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ActiveFlows sums occupied register slots across shards. It reads the
// workers' published per-burst snapshots, so it is safe to call while a
// session is running (the value trails live state by at most one burst per
// shard).
func (e *Engine) ActiveFlows() int {
	n := 0
	for _, s := range e.shards {
		w := s.pub.load()
		n += int(w[pubActive])
	}
	return n
}

// TableCap sums the shards' flow-table capacities — the denominator for
// occupancy gauges (ActiveFlows / TableCap).
func (e *Engine) TableCap() int {
	n := 0
	for _, s := range e.shards {
		n += s.pl.TableCap()
	}
	return n
}

// FlightLog snapshots a shard's flight-recorder ring: the last events (up
// to the configured depth) its worker, the session watchdog, and — on
// panic — the quarantine fence recorded. Lock-free and safe at any time,
// including mid-session; every returned event is internally consistent.
// Returns nil when the recorder is disabled or the shard is out of range.
func (e *Engine) FlightLog(shard int) []flight.Event {
	if shard < 0 || shard >= len(e.shards) || e.shards[shard].rec == nil {
		return nil
	}
	return e.shards[shard].rec.Snapshot(nil)
}

// runChunk is the batch size Run uses when feeding a generic Source through
// a session.
const runChunk = 2048

// Run drains the source through a session and returns the merged result —
// the batch facade over Start/Feed/Close. It is digest-multiset-identical
// to consuming the same source through the streaming API (it is the
// streaming API), and remains backward compatible with pre-session callers.
func (e *Engine) Run(src Source) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("engine: nil source")
	}
	s, err := e.Start(context.Background())
	if err != nil {
		return nil, err
	}
	if ss, ok := src.(*SliceSource); ok {
		// Fast path: feed the remaining slice directly, no per-packet copy
		// into a staging chunk.
		pkts := ss.Pkts[ss.pos:]
		ss.pos = len(ss.Pkts)
		err = s.FeedAll(pkts)
	} else {
		err = s.FeedSource(src)
	}
	res, closeErr := s.Close()
	if err != nil {
		return nil, err
	}
	return res, closeErr
}

// work is one shard's consumer loop: pop a burst, apply queued evictions,
// run the burst through the replica (digests go straight into the shard's
// digest ring), advance the ageing sweep by one stripe of packet time, hand
// the burst back to its owning feeder's free ring, publish fresh stats.
// Exits when the feed side has signalled done and the queue is drained —
// a quarantined shard too, which completes the worker's wg contribution so
// Close still drains cleanly.
//
// filter re-checks close the dispatch race: the feeders already drop
// blocked flows, but packets queued in the ring before a verdict landed
// would otherwise slip past — and after Block evicts the flow's slot, such
// a straggler would re-activate the slot and leak it again. The check is
// amortised per burst: the worker reads the filter's size once per burst
// (after applying evictions) and walks packets through the filter only
// when it has entries. The invariant that keeps eviction safe survives the
// amortisation because evictions are applied only at these same per-burst
// boundaries: Block installs the filter entry before enqueueing the
// eviction, so by the time drainEvictions has applied it, the size read
// that follows must observe the entry and turn per-packet checks on — every
// packet processed after an applied eviction still sees the filter, and a
// blocked flow can never resurrect its register state. A verdict landing
// mid-burst whose eviction has not yet been applied may let that burst's
// stragglers through to the pipeline (they are dropped from the next burst
// on), which only moves a few packets from the dropped count to the
// processed count — exactly the dispatch race the Block contract allows.
//
// Ageing sweeps advance on burst packet timestamps; the only wall-clock
// reads are the allow-listed digest-latency stamp in processBurst and the
// idle backoff's Sleep.
//
//splidt:packettime
//splidt:hotpath
func (s *shardState) work(sess *Session, shard int) {
	//splidt:allow lock — WaitGroup.Done once, at worker exit
	defer sess.wg.Done()
	// live turns false when a burst panics the replica: it is frozen as the
	// panic left it (possibly mid-mutation) and never touched again, while
	// the input ring keeps draining to the drop counter, so feeders pushing
	// at the dead shard never wedge and bursts keep recycling home.
	live := true
	for idle := 0; ; {
		b, ok := s.in.tryPop()
		if !ok && s.done.Load() {
			// done is published after the final push; one more pop closes
			// the race with a flush that landed in between.
			if b, ok = s.in.tryPop(); !ok {
				if live {
					s.boundary()
					s.publish()
				}
				return
			}
		}
		if !ok {
			// Idle: an idle shard must not hold a redeploy's epoch handoff
			// hostage to its next packet, and a controller block must free
			// register state even when no traffic is flowing.
			if live && s.boundary() {
				s.publish()
			}
			// Spin briefly, then sleep: a live session can sit idle for
			// long stretches and must not burn a core per shard.
			if idle++; idle > idleSpins {
				time.Sleep(idleSleep)
			} else {
				//splidt:allow call — idle spin: nothing queued, yield the P
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		if !live {
			s.quarDrops.Add(int64(len(b.pkts)))
			b.pkts = b.pkts[:0]
			b.home.push(b)
			continue
		}
		if s.hold != nil {
			//splidt:allow chan — test-only gate that makes backpressure deterministic; nil in production
			<-s.hold
		}
		s.boundary()
		// A panicking burst is contained by processBurst's fence, which has
		// recorded the fault and recycled the burst by the time it returns.
		live = s.processBurst(sess, shard, b)
	}
}

// boundary is the control work a worker does between bursts (and while
// idle): adopt a pending deployment — only ever here, so no packet observes
// a half-swapped tree and the shard's digest stream switches epochs exactly
// at a burst edge — and apply queued evictions. It reports whether evictions
// changed the stats (adopt publishes for itself).
//
//splidt:hotpath
func (s *shardState) boundary() bool {
	if dep := s.pendingDeploy(); dep != nil {
		//splidt:allow call — redeploy adoption: once per deployment
		s.adopt(dep)
	}
	//splidt:allow call — eviction mailbox: one atomic load while empty, controller-rate otherwise
	return s.drainEvictions() > 0
}

// processBurst runs one burst through the replica under the quarantine
// fence: a panic anywhere in the per-packet path (pipeline, flow table,
// timer wheel, injected fault) is contained to this shard (see contain).
// Returns whether the burst completed normally.
//
//splidt:hotpath
func (s *shardState) processBurst(sess *Session, shard int, b *burst) (ok bool) {
	i := 0
	if s.rec != nil {
		s.rec.Record(flight.KindBurstStart, s.sweepNow, int64(len(b.pkts)), int64(s.epoch.Load()))
	}
	//splidt:allow funcval,closure — the recover fence: an open-coded defer of a literal, which does not allocate
	defer func() {
		if r := recover(); r != nil {
			//splidt:allow call — the fence's body runs once, after a panic
			s.contain(sess, shard, b, len(b.pkts)-i, r)
		}
	}()
	hooks := sess.hooks
	// One look at the filter per burst — after the eviction drain, so an
	// applied eviction's filter entry is always observed (see work).
	filter := &sess.filter
	check := filter.size() > 0
	for ; i < len(b.pkts); i++ {
		if check && filter.blocked(b.pkts[i].Key) {
			sess.dropped.Add(1)
			continue
		}
		if hooks != nil && hooks.BeforePacket != nil {
			//splidt:allow funcval — fault-injection seam; hooks are nil in production
			hooks.BeforePacket(shard, &b.pkts[i])
		}
		if s.pl.ProcessInto(b.pkts[i], &s.digest) {
			if s.latHist != nil {
				//splidt:allow wallclock — digest latency is a harness metric measured in wall time by design
				s.latHist.RecordDur(time.Since(b.fedAt))
			}
			// Out through the shard's ring: one copy, one atomic store. The
			// worker never waits and never drops — a full ring (nobody is
			// polling) is spilled into the session's backlog on the spot —
			// and it rings the Digests pump only while the pump says it is
			// parked, so a Poll-driven session pays one load for it.
			if !s.out.tryPush(&s.digest) {
				//splidt:allow call — the spill: takes mu once per ring's worth of digests nobody drained
				sess.spill(s.out, &s.digest)
			}
			if sess.parked.Load() {
				//splidt:allow call — the wake send: non-blocking, attempted only while the pump is parked
				sess.wakePump()
			}
		}
	}
	npkts := len(b.pkts)
	if npkts > 0 {
		// Drive flow-table ageing from packet time, never wall clock:
		// one bounded sweep stripe per burst keeps the reclaim cost
		// amortised O(1) per packet and the schedule deterministic for
		// a given burst sequence. The clock is monotone across replayed
		// waves (a re-streamed trace restarts at time zero).
		if ts := b.pkts[npkts-1].TS; ts > s.sweepNow {
			s.sweepNow = ts
		}
		if reclaimed := s.pl.Sweep(s.sweepNow); reclaimed > 0 && s.rec != nil {
			s.rec.Record(flight.KindSweep, s.sweepNow, int64(reclaimed), 0)
		}
	}
	b.pkts = b.pkts[:0]
	b.home.push(b)
	s.publish()
	if s.rec != nil {
		s.rec.Record(flight.KindBurstEnd, s.sweepNow, int64(npkts), s.pub.last[pubDigests])
	}
	return true
}

// contain is the quarantine fence's body, run from processBurst's deferred
// recover: it records the session's cause error with the shard's flight log
// as postmortem, marks the shard quarantined, counts the burst's unprocessed
// remainder as quarantine drops, and still recycles the burst home so the
// owning feeder's pool stays whole.
func (s *shardState) contain(sess *Session, shard int, b *burst, dropped int, r any) {
	var pm []flight.Event
	if s.rec != nil {
		// Record the quarantine itself, then freeze the shard's last
		// moments into the fault report: the postmortem every
		// ShardPanicError ships instead of losing them with the goroutine.
		s.rec.Record(flight.KindQuarantine, s.sweepNow, int64(dropped), 0)
		pm = s.rec.Snapshot(nil)
	}
	sess.recordFault(&ShardPanicError{Shard: shard, Value: r, Stack: debug.Stack(), Postmortem: pm})
	s.health.Store(int32(ShardQuarantined))
	s.quarDrops.Add(int64(dropped))
	b.pkts = b.pkts[:0]
	b.home.push(b)
	s.publish()
}

// adopt swaps the pending deployment into the shard's replica — the
// per-shard half of Session.Redeploy's epoch handoff. Worker-only, called
// at burst boundaries and while idle. Publishing the epoch after the swap
// is what Redeploy's adoption wait observes.
func (s *shardState) adopt(dep *deployment) {
	s.pendingDep.CompareAndSwap(dep, nil)
	s.pl.Redeploy(dep.model, dep.compiled, dep.epoch)
	s.epoch.Store(dep.epoch)
	if s.rec != nil {
		s.rec.Record(flight.KindAdopt, s.sweepNow, int64(dep.epoch), 0)
	}
	s.publish()
}

// pendingDeploy returns the deployment waiting for this shard, nil when
// none is — the only cost hitless redeploy adds to the steady-state worker
// loop: one atomic pointer load per burst.
//
//splidt:hotpath
func (s *shardState) pendingDeploy() *deployment {
	return s.pendingDep.Load()
}

const (
	idleSpins = 256
	idleSleep = 100 * time.Microsecond
)

// publish refreshes the shard's observable snapshot; all fields are O(1)
// reads off the pipeline.
//
//splidt:hotpath
func (s *shardState) publish() {
	var w [pubWords]int64
	st, ts := s.pl.Stats(), s.pl.TableStats()
	statsWords(&st, &w)
	w[pubActive], w[pubStashed], w[pubClock] = int64(ts.Occupied), int64(ts.Stashed), int64(s.sweepNow)
	s.pub.store(&w)
}

// sortDigests fixes a deterministic total order on the merged stream:
// classification time, then flow key, then the remaining fields (two
// digests can share a timestamp only across shards, so the key breaks the
// tie; the full tuple makes the order total even under key collisions).
func sortDigests(ds []dataplane.Digest) {
	slices.SortFunc(ds, func(x, y dataplane.Digest) int {
		if c := cmp.Compare(x.At, y.At); c != 0 {
			return c // nearly every comparison ends here
		}
		return cmp.Or(
			cmp.Compare(x.Key.SrcIP, y.Key.SrcIP),
			cmp.Compare(x.Key.DstIP, y.Key.DstIP),
			cmp.Compare(x.Key.SrcPort, y.Key.SrcPort),
			cmp.Compare(x.Key.DstPort, y.Key.DstPort),
			cmp.Compare(x.Key.Proto, y.Key.Proto),
			cmp.Compare(x.Started, y.Started),
			cmp.Compare(x.Class, y.Class),
			cmp.Compare(x.Packets, y.Packets),
			cmp.Compare(x.Epoch, y.Epoch),
		)
	})
}
