package engine

//splidt:packettime — ring transfer sits on the per-packet path; bursts carry packet timestamps, never wall-clock reads

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/pkt"
)

// burst is a fixed-capacity packet batch — the unit that moves between a
// feeder and a shard worker. Bursts are allocated once per (feeder, shard)
// pair at feeder construction and recycled through that pair's private free
// ring (home), so the steady-state hot path performs no allocation.
type burst struct {
	pkts []pkt.Packet // len == n valid packets, cap == engine burst size
	// fedAt is the wall-clock instant the feeder handed this burst to a
	// shard ring — the start of the digest-latency clock. Stamped only for
	// sessions started WithDigestLatency; stale otherwise (bursts recycle),
	// which is fine because the worker reads it only when latency is on.
	fedAt time.Time
	// home is the free ring this burst recycles through: the SPSC ring of
	// the (feeder, shard) pair that owns it. The shard's worker is its only
	// producer and the owning feeder its only consumer.
	home *spscRing
}

// spscRing is a bounded single-producer single-consumer ring of bursts.
// head is owned by the consumer and tail by the producer; each side only
// ever stores its own index, so plain atomic loads/stores give a correct
// lock-free queue (the standard DPDK/ndn-dpdk rte_ring SP/SC shape).
// Capacity is a power of two so index reduction is a mask.
type spscRing struct {
	buf  []*burst
	mask uint64

	// head and tail sit on separate cache lines so the producer and
	// consumer cores do not false-share.
	_    [64]byte
	head atomic.Uint64 // next index to pop (consumer-owned)
	_    [64]byte
	tail atomic.Uint64 // next index to push (producer-owned)
	_    [64]byte
}

// newRing builds a ring with capacity rounded up to a power of two (≥ 2).
func newRing(capacity int) *spscRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &spscRing{buf: make([]*burst, n), mask: uint64(n - 1)}
}

// tryPush enqueues b, reporting false when the ring is full.
//
//splidt:hotpath
func (r *spscRing) tryPush(b *burst) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = b
	r.tail.Store(tail + 1)
	return true
}

// tryPop dequeues the oldest burst, reporting false when the ring is empty.
//
//splidt:hotpath
func (r *spscRing) tryPop() (*burst, bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil, false
	}
	b := r.buf[head&r.mask]
	r.buf[head&r.mask] = nil
	r.head.Store(head + 1)
	return b, true
}

// push spins until b fits. Backpressure: a full ring means the worker is
// behind, so the producer yields its timeslice rather than busy-burning.
//
//splidt:hotpath
func (r *spscRing) push(b *burst) {
	for !r.tryPush(b) {
		//splidt:allow call — full free ring only: a feeder holds Queue+2 bursts per shard, so its home ring always has room
		runtime.Gosched()
	}
}

// digestRing is a bounded SPSC ring of digest values: a shard worker's way
// out. The worker is the only producer (one copy in, one atomic store per
// digest, no allocation); the consumer is whoever holds Session.mu — Poll,
// the Digests pump, Close, or the worker itself when it spills a full ring.
// Same head/tail discipline as spscRing.
type digestRing struct {
	buf  []dataplane.Digest
	mask uint64

	_    [64]byte
	head atomic.Uint64 // next index to drain (consumer side, under Session.mu)
	_    [64]byte
	tail atomic.Uint64 // next index to push (worker-owned)
	_    [64]byte
}

// newDigestRing builds a ring with capacity rounded up to a power of two
// (≥ 2).
func newDigestRing(capacity int) *digestRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &digestRing{buf: make([]dataplane.Digest, n), mask: uint64(n - 1)}
}

// tryPush copies *d into the ring, reporting false when it is full.
//
//splidt:hotpath
func (r *digestRing) tryPush(d *dataplane.Digest) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = *d
	r.tail.Store(tail + 1)
	return true
}

// drain moves up to len(dst) of the oldest digests into dst and returns how
// many it moved.
//
//splidt:hotpath
func (r *digestRing) drain(dst []dataplane.Digest) int {
	head := r.head.Load()
	n := min(int(r.tail.Load()-head), len(dst))
	if n == 0 {
		return 0
	}
	c := copy(dst[:n], r.buf[head&r.mask:])
	copy(dst[c:n], r.buf)
	r.head.Store(head + uint64(n))
	return n
}

// appendTo drains everything the ring holds onto the end of dst.
func (r *digestRing) appendTo(dst []dataplane.Digest) []dataplane.Digest {
	n, k := len(dst), int(r.tail.Load()-r.head.Load())
	dst = slices.Grow(dst, k)
	return dst[:n+r.drain(dst[n:n+k])]
}

// mpscSlot is one cell of an mpscRing: the burst plus the slot's sequence
// number, which encodes whose turn the cell is on (producer lap vs consumer
// lap) without any shared lock.
type mpscSlot struct {
	seq atomic.Uint64
	b   *burst
}

// mpscRing is a bounded multi-producer single-consumer ring of bursts — the
// shard input queue once multiple feeders dispatch concurrently. Producers
// reserve a slot by CAS on tail (the rte_ring MP reservation, cf.
// ndn-dpdk's input-thread → forwarder rings), then publish the burst by
// advancing the slot's sequence number; the consumer side is unchanged from
// the SPSC shape: it spins nowhere, owns head outright, and observes each
// slot's sequence to know when its burst is published. This is the classic
// Vyukov bounded-queue discipline restricted to one consumer.
//
// Per-producer FIFO holds: a producer's successive pushes reserve strictly
// increasing slot indices, and the consumer pops in slot order — so bursts
// from one feeder never reorder, which is what keeps per-flow packet order
// intact when each flow is confined to one feeder.
type mpscRing struct {
	slots []mpscSlot
	mask  uint64

	// tail is shared by all producers (CAS); head is consumer-private.
	// Separate cache lines so producers and the consumer do not false-share.
	_    [64]byte
	tail atomic.Uint64 // next slot index to reserve (producers, CAS)
	_    [64]byte
	head uint64 // next slot index to pop (consumer-owned, no atomics needed)
	// pops mirrors head for observers: the consumer publishes its pop count
	// here so the health watchdog can read backlog() without touching the
	// consumer-private head. One extra atomic store per pop, no contention.
	pops atomic.Uint64
	_    [64]byte
}

// newMPSCRing builds a ring with capacity rounded up to a power of two
// (≥ 2). Slot i starts at sequence i, meaning "free for the producer whose
// reservation lands on index i".
func newMPSCRing(capacity int) *mpscRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &mpscRing{slots: make([]mpscSlot, n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// tryPush enqueues b, reporting false when the ring is full. Safe from any
// number of concurrent producers.
//
//splidt:hotpath
func (r *mpscRing) tryPush(b *burst) bool {
	for {
		tail := r.tail.Load()
		s := &r.slots[tail&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == tail:
			// Slot free this lap: reserve it. A CAS loss means another
			// producer took the index — retry at the new tail.
			if r.tail.CompareAndSwap(tail, tail+1) {
				s.b = b
				s.seq.Store(tail + 1) // publish: consumer may now take it
				return true
			}
		case seq < tail:
			// Slot still holds last lap's unconsumed burst: ring is full.
			return false
		default:
			// tail moved between the two loads; retry with a fresh view.
		}
	}
}

// tryPop dequeues the oldest published burst, reporting false when none is
// ready. Single consumer only. A slot whose producer has reserved but not
// yet published reads as not-ready, preserving slot order.
//
//splidt:hotpath
func (r *mpscRing) tryPop() (*burst, bool) {
	s := &r.slots[r.head&r.mask]
	if s.seq.Load() != r.head+1 {
		return nil, false
	}
	b := s.b
	s.b = nil
	// Release the slot for the producer one lap ahead.
	s.seq.Store(r.head + uint64(len(r.slots)))
	r.head++
	r.pops.Store(r.head)
	return b, true
}

// backlog reports how many bursts are enqueued but not yet popped. Safe from
// any goroutine: it reads only the producers' tail and the consumer's
// published pop count, never the consumer-private head. The two loads are not
// a snapshot, so the result can transiently overshoot by in-flight pushes —
// fine for the health watchdog, which only needs "is work piling up".
func (r *mpscRing) backlog() int {
	t := r.tail.Load()
	p := r.pops.Load()
	if t <= p {
		return 0
	}
	return int(t - p)
}
