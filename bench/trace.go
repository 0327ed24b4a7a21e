package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names. Driver spans wrap what the feeder thread does per chunk; the
// rest wrap calls into one layer each during the single-threaded replay.
const (
	spSegment = iota
	spGen
	spWaitDue
	spFeed
	spPoll
	spReplay
	spProcess
	spShadow
	spAcquire
	spSchedule
	spUpdate
	spSnapshot
	spMarks
	spLookup
	spReset
	spRelease
	spAdvance
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver.segment", "driver.gen", "driver.wait_due", "driver.feed", "driver.poll",
	"replay", "dataplane.process", "shadow.block",
	"flowtable.acquire", "timerwheel.schedule", "features.update",
	"features.snapshot", "rangemark.marks", "rangemark.lookup",
	"features.reset", "flowtable.release", "timerwheel.advance",
}

// span is one timed interval: what ran, when, which span caused it (-1 for
// a root) and which measured segment it belongs to.
type span struct {
	Name   uint8
	Seg    int32
	Parent int32
	Start  int64 // ns on the benchmark's clock (now)
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil tracer means
// tracing is off; callers branch on that, so an untraced run reads no extra
// clocks.
type tracer struct {
	spans []span
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<20)}
}

// now is the benchmark's one clock: monotonic nanoseconds since start-up.
// Drivers, pacers and spans all read it, so their instants compare.
func now() int64 { return int64(time.Since(clockEpoch)) }

var clockEpoch = time.Now()

// begin opens a span at start and returns its id for end and for children.
func (t *tracer) begin(name uint8, parent, seg int32, start int64) int32 {
	t.spans = append(t.spans, span{Name: name, Seg: seg, Parent: parent, Start: start, End: start})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32, end int64) { t.spans[id].End = end }

// spanTotals is what the spans of one name add up to.
type spanTotals struct {
	Count  int64 `json:"count"`
	Total  int64 `json:"total_ns"`
	SelfNS int64 `json:"self_ns"`
}

// selfTimes sums, per span name, the spans' durations and their self time:
// duration minus the part of the span's interval its child spans cover.
// Children are clipped to the parent, and a child that overlaps or abuts an
// earlier sibling only counts for the part not yet covered, so no instant
// is subtracted twice. Spans must be in start order, which begin gives.
func selfTimes(spans []span) [numSpanNames]spanTotals {
	cov := make([]int64, len(spans))  // covered by children so far
	upto := make([]int64, len(spans)) // children cover nothing new before this instant
	for i, s := range spans {
		upto[i] = s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, upto[s.Parent]), min(s.End, p.End)
		if hi > lo {
			cov[s.Parent] += hi - lo
			upto[s.Parent] = hi
		}
	}
	var out [numSpanNames]spanTotals
	for i, s := range spans {
		tot := &out[s.Name]
		tot.Count++
		tot.Total += s.End - s.Start
		tot.SelfNS += s.End - s.Start - cov[i]
	}
	return out
}

// maxRawSpans caps the raw spans written per trace file, shared evenly
// between the driver's spans and the replay's; the totals always cover
// every span recorded.
const maxRawSpans = 50_000

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Header  header                `json:"header"`
	Names   []string              `json:"span_names"`
	Totals  map[string]spanTotals `json:"totals"`
	Spans   int                   `json:"spans_recorded"`
	Columns []string              `json:"raw_columns"`
	Raw     [][6]int64            `json:"raw"`
}

// write stores the recording; tot is selfTimes(t.spans), which the caller
// has already computed for its report.
func (t *tracer) write(path string, h header, tot [numSpanNames]spanTotals) error {
	tf := traceFile{
		Header:  h,
		Names:   spanNames[:],
		Totals:  make(map[string]spanTotals),
		Spans:   len(t.spans),
		Columns: []string{"id", "name", "segment", "parent", "start_ns", "end_ns"},
	}
	for name, nt := range tot {
		if nt.Count > 0 {
			tf.Totals[spanNames[name]] = nt
		}
	}
	// The driver's spans come first in the recording, the replay's after.
	replay := len(t.spans)
	for i, s := range t.spans {
		if s.Name == spReplay {
			replay = i
			break
		}
	}
	for _, part := range [][2]int{{0, replay}, {replay, len(t.spans)}} {
		for i := part[0]; i < min(part[1], part[0]+maxRawSpans/2); i++ {
			s := t.spans[i]
			tf.Raw = append(tf.Raw, [6]int64{int64(i), int64(s.Name), int64(s.Seg), int64(s.Parent), s.Start, s.End})
		}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
