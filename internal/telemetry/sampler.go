package telemetry

// The time-series sampler: a wall-clock ticker polling Snapshot()/Health()
// — both read only published atomics — and deriving the rates /metrics
// serves as first-class gauges. Entirely off the hot path: the workers
// never see the sampler, and a scrape reads the precomputed last sample
// instead of differentiating on demand.

import (
	"sync"
	"time"

	"splidt/internal/engine"
)

// Sample is one sampler observation.
type Sample struct {
	// At is the wall-clock sample time.
	At time.Time `json:"at"`
	// PktsPerSec / DigestsPerSec / EvictionsPerSec are deltas of the
	// session's cumulative counters over the sampling interval.
	PktsPerSec      float64 `json:"pkts_per_sec"`
	DigestsPerSec   float64 `json:"digests_per_sec"`
	EvictionsPerSec float64 `json:"evictions_per_sec"`
	// ActiveFlows is the occupied-slot gauge at the sample.
	ActiveFlows int `json:"active_flows"`
	// Backlog is the number of bursts queued across shard input rings.
	Backlog int `json:"backlog"`
	// Lag is fed-but-unaccounted packets: Fed minus processed, dropped,
	// quarantine-drained, and discarded — the in-flight/queued depth a
	// stalling worker lets grow. Clamped at 0: Snapshot.Fed moves once per
	// Feed call, so mid-call the workers can be ahead of it.
	Lag int64 `json:"lag_packets"`
}

type sampler struct {
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	mu   sync.Mutex
	buf  []Sample // ring: next points at the oldest once full
	next int
	full bool

	// prev anchors the rate deltas; reset when the bound session changes
	// (a new session's counters restart from zero).
	prevSess *engine.Session
	prevSnap engine.Snapshot
	prevAt   time.Time
}

func newSampler(interval time.Duration, depth int) *sampler {
	return &sampler{
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		buf:      make([]Sample, 0, depth),
	}
}

// run polls until close. Owned by Serve's goroutine.
func (m *sampler) run(srv *Server) {
	defer close(m.done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			sess := srv.session()
			if sess == nil {
				m.mu.Lock()
				m.prevSess = nil
				m.mu.Unlock()
				continue
			}
			snap := sess.Snapshot()
			h := sess.Health()
			m.observe(sess, snap, h, now)
		}
	}
}

func (m *sampler) observe(sess *engine.Session, snap engine.Snapshot, h engine.Health, now time.Time) {
	backlog := 0
	for _, sh := range h.Shards {
		backlog += sh.Backlog
	}
	sm := Sample{
		At:          now,
		ActiveFlows: snap.ActiveFlows,
		Backlog:     backlog,
		Lag:         max(0, snap.Fed-int64(snap.Stats.Packets)-snap.Dropped-snap.QuarantineDropped-snap.DiscardedStaged),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.prevSess == sess {
		if dt := now.Sub(m.prevAt).Seconds(); dt > 0 {
			sm.PktsPerSec = float64(snap.Stats.Packets-m.prevSnap.Stats.Packets) / dt
			sm.DigestsPerSec = float64(snap.Stats.Digests-m.prevSnap.Stats.Digests) / dt
			sm.EvictionsPerSec = float64(snap.Stats.Evictions-m.prevSnap.Stats.Evictions) / dt
		}
	}
	m.prevSess, m.prevSnap, m.prevAt = sess, snap, now
	if len(m.buf) < cap(m.buf) {
		m.buf = append(m.buf, sm)
		return
	}
	m.buf[m.next] = sm
	m.next = (m.next + 1) % len(m.buf)
	m.full = true
}

// last returns the most recent sample.
func (m *sampler) last() (Sample, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.buf) == 0 {
		return Sample{}, false
	}
	i := m.next - 1
	if !m.full && m.next == 0 {
		i = len(m.buf) - 1
	}
	if i < 0 {
		i = len(m.buf) - 1
	}
	return m.buf[i], true
}

// series returns all retained samples, oldest first.
func (m *sampler) series() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, 0, len(m.buf))
	if m.full {
		out = append(out, m.buf[m.next:]...)
		out = append(out, m.buf[:m.next]...)
	} else {
		out = append(out, m.buf...)
	}
	return out
}

func (m *sampler) close() {
	close(m.stop)
	<-m.done
}
