package main

import (
	"context"
	"fmt"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// The reshard workload: P3 ingest at a fixed rate over a preloaded corpus on
// a K=1 fabric; at a fixed simulated time the fabric grows to K=4 under the
// running stream. Once the grow has returned and the stream is durable, a
// backlog burst measures the grown fabric's drain rate.
const (
	reshardFrom      = 1
	reshardTo        = 4
	reshardWorkers   = 8
	reshardCorpus    = 400  // preloaded provenance items (whole transactions, at least this many)
	reshardRate      = 8.0  // txn per simulated second
	reshardAt        = 0.05 // of the window, when the grow starts
	reshardBurst     = 600
	reshardSampleDur = time.Second
)

type reshardSetup struct {
	f      *fabric
	g      *gen
	dues   []time.Duration
	stream []int
	burst  []int
}

func buildReshard(c config) (*reshardSetup, error) {
	w := c.window()
	rnd := sim.NewRand(c.seed)
	// A light tail keeps the item count, and so the GC the grow must do,
	// close to the same from seed to seed.
	g := newGen(rnd, "reshard", 3)
	var corpus []prov.Bundle
	for len(corpus) < reshardCorpus {
		corpus = append(corpus, g.next().bundles...)
	}
	dues := poissonDues(rnd, int(reshardRate*w.Seconds()*2), reshardRate)
	n := 0
	for n < len(dues) && dues[n] < w {
		n++
	}
	dues = dues[:n]
	txns := make([]txn, n+reshardBurst)
	for i := range txns {
		txns[i] = g.next()
	}
	env := newEnv(c.seed)
	f := newFabric(env, reshardFrom, reshardWorkers, txns)
	reqs, err := core.ItemsForBundles(f.dep.Store, corpus)
	if err != nil {
		return nil, err
	}
	if err := f.dep.DB.BulkPut(reqs, 40, false); err != nil {
		return nil, fmt.Errorf("preloading the corpus: %w", err)
	}
	return &reshardSetup{f: f, g: g, dues: dues, stream: indices(0, n), burst: indices(n, n+reshardBurst)}, nil
}

func runReshard(c config) (*result, error) {
	s, setupS, err := timedSetup(func() (*reshardSetup, error) { return buildReshard(c) })
	if err != nil {
		return nil, err
	}
	f, env, tr := s.f, s.f.env, c.tr
	f.tr = tr
	if tr != nil {
		tr.env = env
	}
	r := newResult()
	r.e2e["setup_s"] = setupS
	w := c.window()

	h := startHost()
	d := usageDelta{u0: env.Meter().Usage(), r0: resTotals(f.dep)}
	f.goLive(c.scale, daemonPoll)
	defer f.stopDaemon()
	var samples <-chan *sampler
	stopSampling := make(chan struct{})
	if tr != nil {
		samples = runSampler(f, reshardSampleDur, stopSampling)
	}

	root := tr.begin("bench", "reshard.window", 0, "")
	t0 := env.Now()
	gen := make(chan struct{})
	go func() {
		defer close(gen)
		f.launch(s.stream, t0, s.dues, root.ID)
	}()

	env.Clock().SleepUntil(t0 + time.Duration(reshardAt*float64(w)))
	sp := tr.begin("core.reshard", "Deployment.Reshard", root.ID, "")
	r0 := env.Now()
	stats, reshardErr := f.dep.Reshard(context.Background(), core.Topology{WALShards: reshardTo, DBShards: reshardTo})
	reshardEnd := env.Now()
	reshardS := (reshardEnd - r0).Seconds()
	tr.end(sp)

	<-gen
	drainErr := f.waitDurable(s.stream, 10*w)
	burstAt := env.Now() - t0
	f.launch(s.burst, t0, burstDues(len(s.burst), burstAt), root.ID)
	peak, burstErr := f.drainBacklog(s.burst, t0+burstAt, 10*w)
	if drainErr == nil {
		drainErr = burstErr
	}
	f.inflight.Wait()
	all := indices(0, len(f.txns))
	if err := f.waitDurable(all, 10*w); drainErr == nil {
		drainErr = err
	}
	tr.end(root)

	rb := tr.begin("bench", "reshard.readback", 0, "")
	qlat, bad, results := readBack(c, env, f.dep, tr, rb.ID, s.g.objects, sampleObjects(f.txns, readBackQueries), readBackConns)
	tr.end(rb)
	var sampled *sampler
	if tr != nil {
		close(stopSampling)
		sampled = <-samples
		copyS, gcS := reshardStages(tr, sp.ID, r0, reshardEnd, sampled.ticks)
		r.layer["reshard.copy_s"], r.layer["reshard.gc_s"] = copyS, gcS
	}
	d.u1, d.r1 = env.Meter().Usage(), resTotals(f.dep)
	h.finish(r)

	if err := f.freeze(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("settle: %v", err))
	}
	if reshardErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("reshard: %v", reshardErr))
	}
	if k := f.dep.DB.Shards(); k != reshardTo {
		r.problems = append(r.problems, fmt.Sprintf("fabric has %d shards after the grow, want %d", k, reshardTo))
	}
	if drainErr != nil {
		r.problems = append(r.problems, drainErr.Error())
	}
	if bad > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d read-back queries returned wrong provenance", bad))
	}
	r.problems = append(r.problems, checkCommitted(f, all)...)
	r.problems = append(r.problems, checkClean(f)...)
	r.problems = append(r.problems, checkItems(f, s.g)...)

	commit, ack, dwell := f.latencies(s.stream)
	addLatencies(r, "commit", commit)
	addLatencies(r, "ack", ack)
	addLatencies(r, "query", qlat)
	r.e2e["peak_tps"] = peak
	r.e2e["app_elapsed_s"] = reshardS
	ops := len(f.txns) + len(qlat)
	r.attempted = ops + 1
	r.failed = int(f.failed.Load()) + bad
	if reshardErr != nil {
		r.failed++
	}
	r.e2e["usd_per_1k_ops"] = 1000 * d.cost() / float64(ops)
	r.e2e["bytes_in_per_user_byte"] = ratio(float64(d.u1.BytesIn-d.u0.BytesIn), float64(userBytes(f.txns)))

	fabricLayers(r.layer, f, d, sampled, len(f.txns), ops, len(qlat), results, dwell)
	r.layer["samples.commit"], r.layer["samples.ack"] = float64(len(commit)), float64(len(ack))
	r.layer["query.p50_ms.versions"] = percentile(qlat, 50).Value
	r.layer["reshard.total_s"] = reshardS
	r.layer["reshard.copied_items"] = float64(stats.CopiedItems)
	r.layer["reshard.gc_items"] = float64(stats.GCItems)
	r.layer["reshard.wal_migrated"] = float64(stats.WALMigrated)
	r.layer["sdb.deletes_per_gc_item"] = ratio(d.ops("sdb.DeleteAttributes"), float64(stats.GCItems))
	r.notes = append(r.notes, fmt.Sprintf("  reshard %d->%d: %.1f s, copied %d, gc %d items",
		reshardFrom, reshardTo, reshardS, stats.CopiedItems, stats.GCItems))
	finishTrace(r, tr)
	return r, nil
}

// reshardStages infers the stages of the reshard that ran over [from, to)
// from the sampled meter: the barrier until copy batches start being
// counted, the copy while they are, the visibility wait until the cutover
// leaves GC pending, and GC until it clears. Each is recorded as a child
// span of parent; the copy and GC durations are returned in simulated
// seconds, at the sampling interval's resolution.
func reshardStages(tr *tracer, parent int64, from, to time.Duration, ticks []tick) (copyS, gcS float64) {
	copyFrom, copyTo, gcFrom, gcTo := to, to, to, to
	for i := 1; i < len(ticks); i++ {
		t, prev := ticks[i], ticks[i-1]
		if t.at < from || prev.at > to {
			continue
		}
		if t.copyBatch > prev.copyBatch {
			copyFrom = min(copyFrom, prev.at)
			copyTo = t.at
		}
		if t.gcPending {
			gcFrom = min(gcFrom, prev.at)
		}
	}
	copyFrom = max(copyFrom, from)
	copyTo = max(copyTo, copyFrom)
	gcFrom = max(gcFrom, copyTo)
	tr.add("core.reshard", "stage/barrier", parent, from, copyFrom)
	tr.add("core.reshard", "stage/copy", parent, copyFrom, copyTo)
	tr.add("core.reshard", "stage/visibility", parent, copyTo, gcFrom)
	tr.add("core.reshard", "stage/gc", parent, gcFrom, gcTo)
	return (copyTo - copyFrom).Seconds(), (gcTo - gcFrom).Seconds()
}
