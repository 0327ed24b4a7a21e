package main

import (
	"context"
	"fmt"
	"time"

	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/flow"
	"splidt/internal/trace"
)

// verifyFlows is the size of the finite reference trace.
const verifyFlows = 2000

// digestID is what two runs of one trace must agree on, digest by digest.
type digestID struct {
	key     flow.Key
	class   int
	packets int
}

// verify checks the engine against its specification before anything is
// timed: a seed-derived finite trace goes through the 1-feeder/1-shard
// cuckoo engine and through one Pipeline over the Oracle table; the two
// digest multisets must be identical and the engine's packet conservation
// identity (fed = processed + dropped) must hold at Close.
func verify(seed int64) error {
	if err, done := verified[seed]; done {
		return err
	}
	err := verifyOnce(seed)
	verified[seed] = err
	return err
}

// verified remembers each seed's verdict: a suite checks a seed once, not
// once per workload.
var verified = map[int64]error{}

func verifyOnce(seed int64) error {
	md, err := trainModel()
	if err != nil {
		return err
	}
	pkts := trace.Interleave(trace.Generate(modelDataset, verifyFlows, seed), 50*time.Microsecond)
	w := workload{Slots: 4 * verifyFlows}

	ref, err := dataplane.New(w.deployConfig(md, dataplane.TableOracle, ""))
	if err != nil {
		return fmt.Errorf("verify: reference pipeline: %w", err)
	}
	want := make(map[digestID]int)
	for _, p := range pkts {
		if d := ref.Process(p); d != nil {
			want[digestID{d.Key, d.Class, d.Packets}]++
		}
	}

	eng, err := engine.New(engine.Config{Deploy: w.deployConfig(md, dataplane.TableCuckoo, ""), Shards: 1})
	if err != nil {
		return fmt.Errorf("verify: engine: %w", err)
	}
	sess, err := eng.Start(context.Background())
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fd, err := sess.NewFeeder()
	if err != nil {
		sess.Close()
		return fmt.Errorf("verify: %w", err)
	}
	feedErr := fd.FeedAll(pkts)
	res, err := sess.Close()
	if feedErr != nil {
		return fmt.Errorf("verify: feed: %w", feedErr)
	}
	if err != nil {
		return fmt.Errorf("verify: close: %w", err)
	}
	snap := sess.Snapshot()
	if got := int64(res.Stats.Packets) + res.Dropped + snap.QuarantineDropped + snap.DiscardedStaged; got != snap.Fed || snap.Fed != int64(len(pkts)) {
		return fmt.Errorf("verify: conservation broken: offered %d, fed %d, accounted %d", len(pkts), snap.Fed, got)
	}
	if res.Stats.Collisions != 0 {
		return fmt.Errorf("verify: %d packets were denied flow state", res.Stats.Collisions)
	}
	got := make(map[digestID]int)
	for _, d := range res.Digests {
		got[digestID{d.Key, d.Class, d.Packets}]++
	}
	if len(got) != len(want) {
		return fmt.Errorf("verify: engine emitted %d distinct digests, reference %d", len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			return fmt.Errorf("verify: digest %v class %d packets %d: engine %d×, reference %d×",
				id.key, id.class, id.packets, got[id], n)
		}
	}
	return nil
}
