package main

import (
	"fmt"
	"time"

	"splidt/internal/trace"
)

// workload is one named traffic mix and the deployment it runs against.
// Every end-to-end run is one feeder goroutine → one shard worker over the
// cuckoo table with the engine's default Burst and Queue; what varies is
// only what is listed here. The struct is written verbatim into every output
// file's header.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Flows is the concurrent flow population and Slots the flow-table cell
	// budget of the single shard.
	Flows int `json:"flows"`
	Slots int `json:"slots"`
	// MeanFlowPkts / SizeSigma are the lognormal flow-size model (durations
	// are the Webserver model's, scaled with the size so the per-flow packet
	// gap stays the Webserver gap).
	MeanFlowPkts float64 `json:"mean_flow_pkts"`
	SizeSigma    float64 `json:"size_sigma"`
	// LongFrac of the flows are keepalives whose every gap is 0.6–2 s.
	LongFrac float64 `json:"long_frac"`
	// IdleTimeout > 0 deploys Expiry: wheel with this base lifetime.
	IdleTimeout time.Duration `json:"idle_timeout_ns"`
	// BlockEvery > 0 installs a Block verdict on a live flow every that many
	// offered packets and lifts it BlockHold packets later. The hold is
	// short on purpose: while any verdict is outstanding both the feeder
	// and the worker take the drop filter's RWMutex per packet, which costs
	// ~150 ns/pkt here and swings by a third with where the host places the
	// two vCPUs (README, finding 8) — left on all the time it drowns what
	// this workload is for.
	BlockEvery int `json:"block_every"`
	BlockHold  int `json:"block_hold"`
	// Rate > 0 offers packets open-loop at this many per second; 0 feeds as
	// fast as backpressure admits (closed loop, one producer).
	Rate float64 `json:"rate_pps"`
	// Chunk is the packets handed to one Feed call.
	Chunk int `json:"chunk"`
	// SegPkts is the fixed packet count of one measured segment and WarmPkts
	// the unmeasured run-in that fills the table and grows every pool.
	SegPkts  int `json:"seg_pkts"`
	WarmPkts int `json:"warm_pkts"`
}

// workloads is the suite. Names are stable: later issues cite them.
var workloads = []workload{
	{
		Name:  "resident-long",
		Why:   "8K long flows with the table in cache: the steady per-packet path (feed, ring, worker loop, Acquire hit, Update); window ends are ~1 in 80 packets",
		Flows: 8192, Slots: 32768, MeanFlowPkts: 180, SizeSigma: 1.3,
		Chunk: 256, SegPkts: 4_500_000, WarmPkts: 400_000,
	},
	{
		Name:  "resident-short",
		Why:   "8K mice of ~8 packets: a window end every ~7 packets and Acquire-fresh + digest + Release every ~8, so snapshot, marks, model lookup and digest hand-off do the extra work",
		Flows: 8192, Slots: 32768, MeanFlowPkts: 8, SizeSigma: 0.8,
		Chunk: 256, SegPkts: 3_000_000, WarmPkts: 400_000,
	},
	{
		Name:  "spill-long",
		Why:   "1M long flows in one 2^21-slot shard: resident-long's packet mix with every Acquire a DRAM miss over ~1 GB of entries; carries mem_bytes_per_slot",
		Flows: 1_000_000, Slots: 1 << 21, MeanFlowPkts: 180, SizeSigma: 1.3,
		Chunk: 256, SegPkts: 1_750_000, WarmPkts: 2_500_000,
	},
	{
		Name:  "paced-long",
		Why:   "resident-long offered open-loop at 1.5M pkts/s (~40% of peak) in 32-packet chunks: digest latency with queues not saturated (ring hand-off, worker wake policy, digest hand-off)",
		Flows: 8192, Slots: 32768, MeanFlowPkts: 180, SizeSigma: 1.3,
		Rate: 1_500_000, Chunk: 32, SegPkts: 1_500_000, WarmPkts: 400_000,
	},
	{
		Name:  "churn-expiry",
		Why:   "50K flows under wheel expiry with 20% keepalives that outlive their lifetime between packets, plus a Block every 2000 packets lifted 512 packets later: reclaim traffic beside lookups",
		Flows: 50_000, Slots: 131072, MeanFlowPkts: 180, SizeSigma: 1.3,
		LongFrac: 0.2, IdleTimeout: 500 * time.Millisecond, BlockEvery: 2000, BlockHold: 512,
		Chunk: 256, SegPkts: 1_750_000, WarmPkts: 1_000_000,
	},
}

// quick shrinks a workload so the plumbing runs in a unit test: packet
// counts ÷ 50, a 20K-flow spill table, a 5K-flow expiry table (fewer flows
// make virtual time pass faster per packet, so the short run still sees
// lifetimes elapse). Quick numbers are not recordable.
func (w workload) quick() workload {
	switch {
	case w.Flows > 100_000:
		w.Flows, w.Slots, w.WarmPkts = 20_000, 1<<16, 250_000
	case w.Flows > 10_000:
		w.Flows, w.Slots = w.Flows/10, w.Slots/8
	}
	w.SegPkts /= 50
	w.WarmPkts /= 50
	return w
}

// sizes returns the generator's flow-size and lifetime model: Webserver
// durations scaled with the mean size, so a mouse's packets are spaced like
// an elephant's and virtual time advances alike on every workload.
func (w workload) sizes() trace.Workload {
	ws := trace.Webserver
	return trace.Workload{
		Name:         w.Name,
		MeanFlowPkts: w.MeanFlowPkts,
		SizeSigma:    w.SizeSigma,
		MeanDuration: time.Duration(float64(ws.MeanDuration) * w.MeanFlowPkts / ws.MeanFlowPkts),
		DurSigma:     ws.DurSigma,
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
