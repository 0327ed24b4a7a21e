package engine

// The digest path's own suite: worker → per-shard SPSC ring → Poll / pump /
// Close, the spill rule that keeps workers from ever waiting on a consumer,
// the sequence-counted published block, and per-call Fed accounting. CI runs
// the package under -race at -cpu=1,2,4.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/faultinject"
	"splidt/internal/flow"
	"splidt/internal/pkt"
	"splidt/internal/trace"
)

// oracleDigests runs pkts through one Pipeline over the Oracle table — the
// engine's specification.
func oracleDigests(t *testing.T, cfg dataplane.Config, pkts []pkt.Packet) []dataplane.Digest {
	t.Helper()
	cfg.Table = dataplane.TableOracle
	pl, err := dataplane.New(cfg)
	if err != nil {
		t.Fatalf("reference pipeline: %v", err)
	}
	var out []dataplane.Digest
	for _, p := range pkts {
		if d := pl.Process(p); d != nil {
			out = append(out, *d)
		}
	}
	return out
}

// mustConserve fails unless every packet offered is accounted for.
func mustConserve(t *testing.T, s *Session, res *Result, offered int) {
	t.Helper()
	snap := s.Snapshot()
	if got := int64(res.Stats.Packets) + res.Dropped + snap.QuarantineDropped + snap.DiscardedStaged; snap.Fed != int64(offered) || got != snap.Fed {
		t.Fatalf("conservation: offered %d, fed %d, accounted %d", offered, snap.Fed, got)
	}
}

// TestNobodyPolls: with a two-slot digest ring and no consumer at all, the
// worker spills instead of waiting — it processes every packet, and Close
// returns the complete stream, multiset-identical to the specification.
func TestNobodyPolls(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	cfg.Table = dataplane.TableCuckoo
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	want := oracleDigests(t, cfg, pkts)
	if len(want) < 50 {
		t.Fatalf("trace emits only %d digests; the test needs many more than the ring holds", len(want))
	}
	for _, shards := range []int{1, 3} {
		e, err := New(Config{Deploy: cfg, Shards: shards, Burst: 16, Queue: 4, DigestBuffer: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(pkts); err != nil {
			t.Fatal(err)
		}
		// The worker's own packet count: it finished the trace with nobody
		// draining its ring, so it never stalled on one.
		waitFor(t, func() bool { return s.Snapshot().Stats.Packets == len(pkts) })
		res, err := s.Close()
		if err != nil {
			t.Fatalf("%d shards: Close: %v", shards, err)
		}
		mustMatchMultiset(t, "nobody polls", res.Digests, want)
		mustConserve(t, s, res, len(pkts))
	}
}

// TestStalledConsumerSpills runs a SinkStall plan against a Poll consumer
// that then stops dead inside the hook: the worker must finish the whole
// trace meanwhile (spilling its two-slot ring into the backlog), and once the
// consumer resumes every digest is delivered exactly once.
func TestStalledConsumerSpills(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	cfg.Table = dataplane.TableCuckoo
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	want := oracleDigests(t, cfg, pkts)

	plan := faultinject.New(1, faultinject.Fault{Kind: faultinject.SinkStall, At: 2, Stall: 2 * time.Millisecond})
	gate, entered := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e, err := New(Config{Deploy: cfg, Shards: 1, Burst: 16, Queue: 4, DigestBuffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background(), WithTestHooks(&TestHooks{
		SinkDigest: func(d *dataplane.Digest) {
			plan.SinkDigest(d) // the seeded stall: a slow consumer
			once.Do(func() {   // then one that stops until the worker is done
				close(entered)
				<-gate
			})
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var polled []dataplane.Digest
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]dataplane.Digest, 8)
		for {
			n := s.Poll(buf)
			polled = append(polled, buf[:n]...)
			select {
			case <-stop:
				if n == 0 {
					return
				}
			default:
				runtime.Gosched()
			}
		}
	}()
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	<-entered
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == len(pkts) })
	s.mu.Lock()
	backlog := len(s.all) - s.delivered
	s.mu.Unlock()
	if backlog < len(want)-16 {
		t.Fatalf("worker finished with the consumer stalled but only %d of %d digests spilled", backlog, len(want))
	}
	close(gate)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.delivered == len(want)
	})
	close(stop)
	<-done
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fired() != 1 {
		t.Fatalf("SinkStall fired %d times, want 1", plan.Fired())
	}
	mustMatchMultiset(t, "polled", polled, want)
	mustMatchMultiset(t, "result", res.Digests, want) // retain mode keeps what Poll handed out
	mustConserve(t, s, res, len(pkts))
}

// TestPollersThenChannel has two goroutines in Poll and switches the session
// to Digests() mid-run: across all three consumers every digest arrives
// exactly once, and each consumer sees a flow's digests in emission order.
func TestPollersThenChannel(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	cfg.Table = dataplane.TableCuckoo
	wave := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	// Two waves of the same flows: every key digests twice, so per-flow
	// order is observable.
	pkts := append(append([]pkt.Packet(nil), wave...), shiftTS(wave, wave[len(wave)-1].TS+time.Second)...)
	want := oracleDigests(t, cfg, pkts)

	e, err := New(Config{Deploy: cfg, Shards: 4, Burst: 16, Queue: 4, DigestBuffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background(), WithBoundedDigests())
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	got := make([][]dataplane.Digest, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]dataplane.Digest, 3)
			for {
				n := s.Poll(buf)
				got[i] = append(got[i], buf[:n]...)
				if n == 0 {
					if stop.Load() {
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}
	if err := s.FeedAll(pkts[:len(wave)]); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := range s.Digests() {
			got[2] = append(got[2], d)
		}
		stop.Store(true) // channel closed: the pollers' next empty Poll is final
	}()
	if err := s.FeedAll(pkts[len(wave):]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var all []dataplane.Digest
	for i, ds := range got {
		last := make(map[flow.Key]time.Duration)
		for _, d := range ds {
			if d.At < last[d.Key] {
				t.Fatalf("consumer %d saw flow %v's digests out of order", i, d.Key)
			}
			last[d.Key] = d.At
		}
		all = append(all, ds...)
	}
	mustMatchMultiset(t, "three consumers", all, want)
	if len(all) != res.Stats.Digests {
		t.Fatalf("delivered %d digests, the shards counted %d", len(all), res.Stats.Digests)
	}
}

// TestPollAfterClose: digests nobody polled before Close stay pollable after
// it, each exactly once, and the bounded-mode Result carries that same tail.
func TestPollAfterClose(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, 60, eqSeed), eqSpacing)
	e, err := New(Config{Deploy: cfg, Shards: 2, DigestBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background(), WithBoundedDigests())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	buf := make([]dataplane.Digest, 7)
	var early []dataplane.Digest
	waitFor(t, func() bool {
		early = append(early, buf[:s.Poll(buf)]...)
		return len(early) > 0
	})
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	var tail []dataplane.Digest
	for n := s.Poll(buf); n > 0; n = s.Poll(buf) {
		tail = append(tail, buf[:n]...)
	}
	mustMatchMultiset(t, "tail", tail, res.Digests)
	if len(early)+len(tail) != res.Stats.Digests {
		t.Fatalf("polled %d before and %d after Close, the shards counted %d", len(early), len(tail), res.Stats.Digests)
	}
	if s.Poll(buf) != 0 {
		t.Fatal("Poll returned digests after the tail was drained")
	}
}

// TestShutdownTimeoutKeepsOutput: with one worker stuck, Close still returns
// what the healthy shard published and emitted — stats from the published
// block, digests drained from its ring by Close as consumer.
func TestShutdownTimeoutKeepsOutput(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 16, Queue: 4, ShutdownTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	unstick := make(chan struct{})
	t.Cleanup(func() { close(unstick) })
	s, err := e.Start(context.Background(), WithTestHooks(&TestHooks{
		BeforePacket: func(shard int, _ *pkt.Packet) {
			if shard == 0 {
				<-unstick
			}
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Whole flows of the healthy shard, a few packets for the stuck one.
	var pkts []pkt.Packet
	stuck := 0
	for _, p := range trace.Interleave(trace.Generate(trace.D3, 20, eqSeed), eqSpacing) {
		if p.Shard(2) == 0 {
			if stuck++; stuck > 8 {
				continue
			}
		}
		pkts = append(pkts, p)
	}
	if err := s.FeedAll(pkts); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Snapshot().PerShard[1].Packets == len(pkts)-8 })
	res, err := s.Close()
	if !errors.Is(err, ErrShutdownTimeout) {
		t.Fatalf("Close = %v, want ErrShutdownTimeout", err)
	}
	if res.PerShard[0].Packets != 0 || res.PerShard[1].Packets != len(pkts)-8 {
		t.Fatalf("per-shard packets %d/%d, want 0/%d", res.PerShard[0].Packets, res.PerShard[1].Packets, len(pkts)-8)
	}
	if res.Stats.Digests == 0 || len(res.Digests) != res.Stats.Digests {
		t.Fatalf("Result carries %d digests, the published stats count %d", len(res.Digests), res.Stats.Digests)
	}
}

// TestSnapshotCoherentUnderPublish hammers Snapshot while workers publish:
// every read of a shard is one publish's values — counters never step back,
// and no read shows more digests and recirculations than packets.
func TestSnapshotCoherentUnderPublish(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	e, err := New(Config{Deploy: cfg, Shards: 3, Burst: 4, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Start(context.Background(), WithBoundedDigests())
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := make([]dataplane.Stats, 3)
			for !stop.Load() {
				for i, st := range s.Snapshot().PerShard {
					if st.Digests+st.ControlPackets > st.Packets {
						t.Errorf("shard %d torn read: %+v", i, st)
						return
					}
					if st.Packets < prev[i].Packets || st.Digests < prev[i].Digests || st.ControlPackets < prev[i].ControlPackets {
						t.Errorf("shard %d stepped back: %+v after %+v", i, st, prev[i])
						return
					}
					prev[i] = st
				}
				_ = e.ActiveFlows()
			}
		}()
	}
	err = s.FeedAll(pkts)
	waitFor(t, func() bool { return s.Snapshot().Stats.Packets == len(pkts) })
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFedExactAtFeedReturn: Fed moves once per Feed call, so it equals the
// packets accepted whenever no Feed is in flight, and is never behind the
// calls that have returned.
func TestFedExactAtFeedReturn(t *testing.T) {
	cfg := deployCfg(t, eqSlots)
	pkts := trace.Interleave(trace.Generate(trace.D3, eqFlows, eqSeed), eqSpacing)
	for _, feeders := range []int{1, 2, 4} {
		e, err := New(Config{Deploy: cfg, Shards: 2, Burst: 16, Queue: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.Start(context.Background(), WithBoundedDigests())
		if err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Int64 // packets of Feed calls that have returned
		var wg sync.WaitGroup
		for _, part := range trace.Partition(pkts, feeders) {
			fd, err := s.NewFeeder()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer fd.Close()
				for off := 0; off < len(part); {
					n, err := fd.Feed(part[off:min(off+100, len(part))])
					off += n
					returned := accepted.Add(int64(n))
					fed := s.Snapshot().Fed
					if fed < returned || (feeders == 1 && fed != returned) {
						t.Errorf("%d feeders: Fed %d after Feed calls accepting %d returned", feeders, fed, returned)
						return
					}
					if err != nil {
						if !errors.Is(err, ErrBackpressure) {
							t.Errorf("Feed: %v", err)
							return
						}
						runtime.Gosched()
					}
				}
			}()
		}
		wg.Wait()
		if fed := s.Snapshot().Fed; fed != int64(len(pkts)) || accepted.Load() != fed {
			t.Fatalf("%d feeders: Fed %d, accepted %d, offered %d", feeders, fed, accepted.Load(), len(pkts))
		}
		res, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		mustConserve(t, s, res, len(pkts))
	}
}

// TestPubBlockRoundTrip pins the word layout: flattening a Stats with every
// field distinct and reading it back is the identity, and a second store
// rewrites only what changed.
func TestPubBlockRoundTrip(t *testing.T) {
	st := dataplane.Stats{
		Packets: 1, ControlPackets: 2, Digests: 3, Collisions: 4, RecircBytes: 5,
		Evictions: 6, Kicks: 7, StashInserts: 8, WheelExpiries: 9,
	}
	for i := range st.WheelCascades {
		st.WheelCascades[i] = 10 + i
	}
	var p pubBlock
	var w [pubWords]int64
	statsWords(&st, &w)
	w[pubActive], w[pubStashed] = 100, 101
	p.store(&w)
	got := p.load()
	if wordsStats(&got) != st || got[pubActive] != 100 || got[pubStashed] != 101 {
		t.Fatalf("round trip: %+v from %v", wordsStats(&got), got)
	}
	seen := make(map[int64]bool)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("two fields share a word: %v", got)
		}
		seen[v] = true
	}
	w[0] = 33
	p.store(&w)
	if got = p.load(); got[0] != 33 || got[pubDigests] != 3 || p.seq.Load() != 4 {
		t.Fatalf("second publish: %v seq %d", got, p.seq.Load())
	}
}
