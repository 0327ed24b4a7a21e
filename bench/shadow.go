package main

import (
	"time"

	"splidt/internal/features"
	"splidt/internal/flow"
	"splidt/internal/flowtable"
	"splidt/internal/pkt"
	"splidt/internal/rangemark"
	"splidt/internal/timerwheel"
)

// blockPkts is the replay block: every stage span covers this many packets
// (or the window ends among them), so two clock reads amortise to well under
// a nanosecond per call.
const blockPkts = 256

// parkedSID marks an early-exited flow's entry, as the pipeline does.
const parkedSID = 0xFFFF

// shadow runs the pipeline's per-packet work stage-at-a-time over a block,
// against its own Store and FlowStates, calling only the layers' public
// functions: first Acquire for all 256 packets, then Update for all, then —
// for the block's window-end packets — Snapshot, MarksInto, Lookup, Reset,
// Release. It keeps the same state machine as dataplane.Pipeline.Process
// (subtree IDs, parking, release at flow end, wheel re-arm per packet), so
// every stage sees the operands the real pipeline gives it; what it cannot
// reproduce is the interleaving, which is why the stage sum is compared with
// dataplane.process_ns and the difference reported as the residual.
type shadow struct {
	store flowtable.Store
	wheel *timerwheel.Wheel // nil without expiry
	c     *rangemark.Compiled
	parts int
	idle  time.Duration
	clock time.Duration
	tr    *tracer
	root  int32 // parent span of the blocks

	// Per-block scratch.
	ck    [blockPkts]flow.Key
	ent   [blockPkts]*flowtable.Entry
	we    []int // block indices of window-end packets on live entries
	sid   []int
	vecs  []features.Vector
	marks []uint32
	rules []rangemark.ModelRule
	reset []*flowtable.Entry
	rel   []*flowtable.Entry

	// calls counts the operations behind each stage span.
	calls [numSpanNames]int64
	fresh int64
	// winSID/winVec sample real window ends for the tcam micro-benchmark.
	winSID []int
	winVec []features.Vector
}

const winSamples = 8192

// newShadow builds an untraced shadow; the replay sets tr and root once the
// warm phase is over.
func newShadow(w workload, md *model) *shadow {
	s := &shadow{
		store: flowtable.NewCuckoo(flowtable.CuckooConfig{Capacity: w.Slots}),
		c:     md.c,
		parts: md.m.NumPartitions(),
		idle:  w.IdleTimeout,
		root:  -1,
		vecs:  make([]features.Vector, blockPkts),
		marks: make([]uint32, blockPkts*md.c.K),
		rules: make([]rangemark.ModelRule, blockPkts),
	}
	if w.IdleTimeout > 0 {
		s.wheel = timerwheel.New(timerwheel.Config{OnExpire: func(n *timerwheel.Node) {
			s.store.Release(n.Data.(*flowtable.Entry))
		}})
	}
	return s
}

// stage times fn as a child span of the block (untimed when tr is nil, as in
// the warm phase).
func (s *shadow) stage(name uint8, block int32, calls int, fn func()) {
	if s.tr == nil {
		fn()
		return
	}
	id := s.tr.begin(name, block, 0, now())
	fn()
	s.tr.end(id, now())
	s.calls[name] += int64(calls)
}

// block runs one block of packets through the stages.
func (s *shadow) block(ps []pkt.Packet) {
	var blk int32 = -1
	if s.tr != nil {
		blk = s.tr.begin(spShadow, s.root, 0, now())
	}
	n := len(ps)
	if ts := ps[n-1].TS; ts > s.clock {
		s.clock = ts
	}

	s.stage(spAcquire, blk, n, func() {
		for i := range ps {
			k := ps[i].Key.Canonical()
			e, st := s.store.Acquire(k)
			if st == flowtable.StatusFresh {
				e.SID = 1
				e.Started = ps[i].TS
				e.State.Reset()
				e.PktCount = 0
				e.Lifetime = s.idle
				s.fresh++
			}
			s.ck[i], s.ent[i] = k, e
		}
	})
	// A later insert in the block may have displaced an entry acquired
	// earlier (cuckoo kicks move entries between cells). Nothing after this
	// point inserts, so pointers re-resolved here stay good for the block.
	for i := range ps {
		if e := s.ent[i]; e != nil && e.Key() != s.ck[i] {
			s.ent[i], _ = s.store.Acquire(s.ck[i])
		}
	}

	if s.wheel != nil {
		s.stage(spSchedule, blk, n, func() {
			for i := range ps {
				if e := s.ent[i]; e != nil {
					s.wheel.Schedule(e.Timer(), s.clock+e.Lifetime)
				}
			}
		})
	}

	s.stage(spUpdate, blk, n, func() {
		for i := range ps {
			if e := s.ent[i]; e != nil && e.SID != parkedSID {
				e.State.Update(ps[i])
				e.PktCount++
			}
		}
	})

	s.we, s.sid, s.reset, s.rel = s.we[:0], s.sid[:0], s.reset[:0], s.rel[:0]
	for i := range ps {
		e := s.ent[i]
		switch {
		case e == nil:
		case e.SID == parkedSID:
			if ps[i].Seq >= ps[i].FlowSize {
				s.rel = append(s.rel, e)
			}
		case ps[i].IsWindowEnd(s.parts):
			s.we = append(s.we, i)
			s.sid = append(s.sid, int(e.SID))
		}
	}
	nw := len(s.we)
	vecs, rules, k := s.vecs[:nw], s.rules[:nw], s.c.K

	s.stage(spSnapshot, blk, nw, func() {
		for j, i := range s.we {
			vecs[j] = s.ent[i].State.Snapshot()
		}
	})
	s.stage(spMarks, blk, nw, func() {
		for j := range vecs {
			s.c.MarksInto(s.sid[j], vecs[j][:], s.marks[j*k:(j+1)*k])
		}
	})
	s.stage(spLookup, blk, nw, func() {
		for j := range vecs {
			rules[j], _ = s.c.Lookup(s.sid[j], s.marks[j*k:(j+1)*k])
		}
	})

	// Apply the verdicts in packet order (untimed glue: this is the
	// pipeline's own branching, not a layer call). An entry an earlier
	// packet of the same block already moved on is left as that packet
	// left it, except that a flow's last packet always frees the entry.
	for j, i := range s.we {
		e, p, r := s.ent[i], &ps[i], &rules[j]
		last := p.Seq >= p.FlowSize
		switch {
		case int(e.SID) != s.sid[j]:
			if last && e.SID != 0 {
				s.rel = append(s.rel, e)
			}
		case last:
			s.rel = append(s.rel, e)
		case r.Exit:
			e.SID = parkedSID
			s.reset = append(s.reset, e)
		default:
			e.SID = uint16(r.Next)
			s.reset = append(s.reset, e)
		}
		if s.tr != nil && len(s.winSID) < winSamples {
			s.winSID = append(s.winSID, s.sid[j])
			s.winVec = append(s.winVec, vecs[j])
		}
	}

	s.stage(spReset, blk, len(s.reset), func() {
		for _, e := range s.reset {
			e.State.Reset()
		}
	})
	s.stage(spRelease, blk, len(s.rel), func() {
		for _, e := range s.rel {
			if e.SID != 0 { // not already freed through a duplicate in this block
				s.store.Release(e)
			}
		}
	})
	if s.wheel != nil {
		fired := 0
		s.stage(spAdvance, blk, 0, func() { fired = s.wheel.Advance(s.clock) })
		if s.tr != nil {
			s.calls[spAdvance] += int64(fired)
		}
	}
	if s.tr != nil {
		s.tr.end(blk, now())
	}
}
