package engine

import (
	"runtime"
	"sync"
	"testing"

	"splidt/internal/dataplane"
	"splidt/internal/pkt"
)

func TestRingFIFO(t *testing.T) {
	r := newRing(4)
	if len(r.buf) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.buf))
	}
	bursts := []*burst{{}, {}, {}, {}}
	for _, b := range bursts {
		if !r.tryPush(b) {
			t.Fatal("push into non-full ring failed")
		}
	}
	if r.tryPush(&burst{}) {
		t.Fatal("push into full ring succeeded")
	}
	for i, want := range bursts {
		got, ok := r.tryPop()
		if !ok || got != want {
			t.Fatalf("pop %d: got %p, want %p", i, got, want)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingRoundsCapacityUp(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}} {
		if r := newRing(tc.ask); len(r.buf) != tc.want {
			t.Errorf("newRing(%d) capacity %d, want %d", tc.ask, len(r.buf), tc.want)
		}
	}
}

func TestMPSCRingFIFO(t *testing.T) {
	r := newMPSCRing(4)
	if len(r.slots) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.slots))
	}
	bursts := []*burst{{}, {}, {}, {}}
	for _, b := range bursts {
		if !r.tryPush(b) {
			t.Fatal("push into non-full ring failed")
		}
	}
	if r.tryPush(&burst{}) {
		t.Fatal("push into full ring succeeded")
	}
	for i, want := range bursts {
		got, ok := r.tryPop()
		if !ok || got != want {
			t.Fatalf("pop %d: got %p, want %p", i, got, want)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	// The ring must keep working across laps (sequence numbers recycle).
	for lap := 0; lap < 3; lap++ {
		for _, b := range bursts {
			if !r.tryPush(b) {
				t.Fatalf("lap %d: push failed", lap)
			}
		}
		for i, want := range bursts {
			if got, ok := r.tryPop(); !ok || got != want {
				t.Fatalf("lap %d pop %d: got %p, want %p", lap, i, got, want)
			}
		}
	}
}

// TestRingMPSCStress drives several producers into one small MPSC ring and
// checks, under the race detector, that nothing is lost or duplicated and
// that each producer's bursts arrive in that producer's push order — the
// per-producer FIFO property multi-feeder dispatch relies on for per-flow
// packet order.
func TestRingMPSCStress(t *testing.T) {
	const (
		producers = 4
		perProd   = 5_000
	)
	r := newMPSCRing(8)
	var wg sync.WaitGroup
	done := make(chan map[int]int, 1)
	go func() {
		next := make(map[int]int, producers) // producer → next expected seq
		got := 0
		for got < producers*perProd {
			b, ok := r.tryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			prod, seq := b.pkts[0].Seq, b.pkts[0].FlowSize
			if want := next[prod]; seq != want {
				t.Errorf("producer %d out of order: got %d, want %d", prod, seq, want)
				done <- nil
				return
			}
			next[prod]++
			got++
		}
		done <- next
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for b := (&burst{pkts: []pkt.Packet{{Seq: p, FlowSize: i}}}); !r.tryPush(b); {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	next := <-done
	for p := 0; p < producers; p++ {
		if next[p] != perProd {
			t.Fatalf("producer %d: consumer saw %d bursts, want %d", p, next[p], perProd)
		}
	}
}

// TestRingSPSCStress moves a long tagged sequence through a small ring with
// one producer and one consumer; ordering and completeness must hold under
// the race detector.
func TestRingSPSCStress(t *testing.T) {
	const n = 20_000
	r := newRing(8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 0
		for next < n {
			b, ok := r.tryPop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if got := b.pkts[0].Seq; got != next {
				t.Errorf("out of order: got %d, want %d", got, next)
				return
			}
			next++
		}
	}()
	for i := 0; i < n; i++ {
		r.push(&burst{pkts: []pkt.Packet{{Seq: i}}})
	}
	wg.Wait()
}

// TestDigestRingFIFO: full and empty are reported, order holds across the
// wrap, and drain honours a destination shorter than what is queued.
func TestDigestRingFIFO(t *testing.T) {
	r := newDigestRing(3) // rounds up to 4
	if len(r.buf) != 4 {
		t.Fatalf("capacity %d, want 4", len(r.buf))
	}
	dst := make([]dataplane.Digest, 8)
	if n := r.drain(dst); n != 0 {
		t.Fatalf("drained %d from an empty ring", n)
	}
	next, seen := 0, 0
	push := func(want bool) {
		t.Helper()
		d := dataplane.Digest{Packets: next}
		if r.tryPush(&d) != want {
			t.Fatalf("push %d: accepted=%v, want %v", next, !want, want)
		}
		if want {
			next++
		}
	}
	drain := func(dst []dataplane.Digest, want int) {
		t.Helper()
		n := r.drain(dst)
		if n != want {
			t.Fatalf("drained %d, want %d", n, want)
		}
		for _, d := range dst[:n] {
			if d.Packets != seen {
				t.Fatalf("out of order: got %d, want %d", d.Packets, seen)
			}
			seen++
		}
	}
	for lap := 0; lap < 5; lap++ { // 3 in, 3 out per lap: the 4-slot ring wraps
		push(true)
		push(true)
		push(true)
		drain(dst[:2], 2)
		drain(dst, 1)
	}
	for i := 0; i < 4; i++ {
		push(true)
	}
	push(false)
	if got := r.appendTo(dst[:1]); len(got) != 5 || got[4].Packets != next-1 {
		t.Fatalf("appendTo kept %d digests ending at %d, want 5 ending at %d", len(got), got[len(got)-1].Packets, next-1)
	}
	push(true)
}

// TestDigestRingStress moves a long tagged sequence through a small ring
// with one producer and one consumer draining in uneven batches.
func TestDigestRingStress(t *testing.T) {
	const n = 50_000
	r := newDigestRing(8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]dataplane.Digest, 5)
		for next := 0; next < n; {
			k := r.drain(dst[:1+next%5])
			if k == 0 {
				runtime.Gosched()
			}
			for _, d := range dst[:k] {
				if d.Packets != next || d.Class != -next {
					t.Errorf("got %+v, want sequence number %d", d, next)
					return
				}
				next++
			}
		}
	}()
	for i := 0; i < n; i++ {
		d := dataplane.Digest{Packets: i, Class: -i}
		for !r.tryPush(&d) {
			runtime.Gosched()
		}
	}
	wg.Wait()
}
