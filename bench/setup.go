package main

import (
	"context"
	"fmt"
	"runtime"

	"splidt/internal/core"
	"splidt/internal/dataplane"
	"splidt/internal/engine"
	"splidt/internal/loadgen"
	"splidt/internal/rangemark"
	"splidt/internal/resources"
	"splidt/internal/trace"
)

// The deployed program is fixed: it is part of the system under test, not
// of the workload, so it does not follow -seed. Dataset 3, partitions
// 3,2,2, k = 4 — the splidt-loadgen defaults. Trained without per-leaf
// lifetimes: with them the wheel arms every flow on the largest trained
// lifetime and a short IdleTimeout expires nothing (README, finding 2).
const (
	modelDataset    = trace.D3
	modelTrainFlows = 400
	modelSeed       = 2
	modelK          = 4
)

var modelPartitions = []int{3, 2, 2}

type model struct {
	m *core.Model
	c *rangemark.Compiled
}

func trainModel() (*model, error) {
	flows := trace.Generate(modelDataset, modelTrainFlows, modelSeed)
	train, _ := trace.Split(trace.BuildSamples(flows, len(modelPartitions)), 0.7)
	m, err := core.Train(train, core.Config{
		Partitions:         modelPartitions,
		FeaturesPerSubtree: modelK,
		NumClasses:         trace.NumClasses(modelDataset),
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	c, err := rangemark.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return &model{m, c}, nil
}

// softwareProfile is Tofino1 with the stage count raised until the
// feasibility check admits 2^21 slots in one shard: the benchmark measures
// the software data plane, whose only real budget is memory.
func softwareProfile() resources.Profile {
	p := resources.Tofino1()
	p.Name = "software"
	p.Stages = 64
	return p
}

// deployConfig is the workload's deployment; table picks the store so the
// verify step and the sweep replay can vary exactly one knob.
func (w workload) deployConfig(md *model, table dataplane.TableScheme, expiry dataplane.ExpiryScheme) dataplane.Config {
	cfg := dataplane.Config{
		Profile:     softwareProfile(),
		Model:       md.m,
		Compiled:    md.c,
		FlowSlots:   w.Slots,
		Table:       table,
		Workload:    trace.Webserver,
		IdleTimeout: w.IdleTimeout,
	}
	if w.IdleTimeout > 0 {
		cfg.Expiry = expiry
	}
	return cfg
}

func (w workload) churnConfig(seed int64) loadgen.ChurnConfig {
	return loadgen.ChurnConfig{
		Flows:           w.Flows,
		Seed:            seed,
		Workload:        w.sizes(),
		LongIATFraction: w.LongFrac,
	}
}

// rig is one warm deployment: engine, live session, its one feeder, the
// generator positioned after the warm phase, and the driver that owns them.
type rig struct {
	w    workload
	eng  *engine.Engine
	sess *engine.Session
	drv  *driver
	// memBytes is the live heap the engine and its session added: HeapAlloc
	// after a forced GC at the end of warm minus HeapAlloc after a forced GC
	// just before engine.New (generator built, warm packets generated).
	memBytes uint64
}

// newRig performs one complete set-up: train, compile, build the generator
// and the engine, start the session, and run the warm phase. recorder is
// engine.Config.FlightRecorder (0 = default, negative = off).
func newRig(w workload, seed int64, recorder int) (*rig, error) {
	md, err := trainModel()
	if err != nil {
		return nil, err
	}
	gen, err := loadgen.NewChurn(w.churnConfig(seed))
	if err != nil {
		return nil, err
	}
	drv := newDriver(w, gen)
	warm := drv.pregen(w.WarmPkts) // before the heap baseline: see pregen
	before := heapAfterGC()
	eng, err := engine.New(engine.Config{
		Deploy:         w.deployConfig(md, dataplane.TableCuckoo, dataplane.ExpiryWheel),
		Shards:         1,
		FlightRecorder: recorder,
	})
	if err != nil {
		return nil, err
	}
	sess, err := eng.Start(context.Background(), engine.WithBoundedDigests())
	if err != nil {
		return nil, err
	}
	fd, err := sess.NewFeeder()
	if err != nil {
		sess.Close()
		return nil, err
	}
	drv.attach(sess, fd)
	r := &rig{w: w, eng: eng, sess: sess, drv: drv}
	if err := drv.warm(warm); err != nil {
		r.close()
		return nil, err
	}
	if after := heapAfterGC(); after > before {
		r.memBytes = after - before
	}
	runtime.KeepAlive(warm) // live at both heap readings, so it cancels out
	return r, nil
}

// close ends the session and returns its error (nil for a healthy run).
func (r *rig) close() error {
	_, err := r.sess.Close()
	return err
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
