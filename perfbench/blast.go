package main

import (
	"fmt"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
	"passcloud/internal/workload"
)

// The blast workload: the paper's Blast trace replayed through the PASS
// collector and PA-S3fs with asynchronous commits onto P3 on the paper's
// K=1 layout, from an EC2 client in the September-2009 service era — the
// Figure 4 cell. The trace is one fixed job, so its window is one
// replay rather than --seconds; the clock scale is chosen so a replay takes
// about as long as the other workloads' windows.
const (
	blastInflight = 16 // PA-S3fs in-flight async commits, as in the Figure 4 runs
	blastWorkers  = 4  // commit daemons draining the one WAL queue
	blastPoll     = 2 * time.Second
	blastOutputs  = 595 // files blastall writes directly: the gate's Q3 answer
)

type blastSetup struct {
	f     *fabric
	wl    workload.Workload
	fs    *pasfs.FS
	proto *timedProtocol
}

func buildBlast(c config) (*blastSetup, error) {
	wl := workload.Blast(sim.NewRand(c.seed))
	cfg := sim.DefaultConfig()
	cfg.Seed = c.seed
	env := sim.NewEnv(cfg)
	f := newFabric(env, 1, blastWorkers, nil)
	proto := &timedProtocol{
		Protocol:  f.p3,
		env:       env,
		trk:       f.trk,
		closes:    make(map[string][]time.Duration),
		committed: make(map[uuid.UUID][]prov.Bundle),
	}
	col := pass.New(env.Rand(), nil)
	fs := pasfs.New(env, proto, col, pasfs.Config{Collect: true, AsyncCommits: true, MaxInflight: blastInflight})
	return &blastSetup{f: f, wl: wl, fs: fs, proto: proto}, nil
}

func runBlast(c config) (*result, error) {
	s, setupS, err := timedSetup(func() (*blastSetup, error) { return buildBlast(c) })
	if err != nil {
		return nil, err
	}
	f, env, tr, p := s.f, s.f.env, c.tr, s.proto
	f.tr, p.tr = tr, tr
	if tr != nil {
		tr.env = env
	}
	r := newResult()
	r.e2e["setup_s"] = setupS

	h := startHost()
	d := usageDelta{u0: env.Meter().Usage(), r0: resTotals(f.dep)}
	f.goLive(c.scale, blastPoll)
	defer f.stopDaemon()
	var samples <-chan *sampler
	stopSampling := make(chan struct{})
	if tr != nil {
		samples = runSampler(f, time.Second, stopSampling)
	}

	root := tr.begin("bench", "blast.replay", 0, "")
	p.parent = root.ID
	t0 := env.Now()
	var applyErr error
	applyHost := make([]time.Duration, 0, len(s.wl.Trace.Events))
	for _, ev := range s.wl.Trace.Events {
		if (ev.Kind == trace.Close || ev.Kind == trace.Flush) && pasfs.OnMount(ev.Path) {
			p.noteClose(ev.Path)
		}
		sp := tr.begin("pasfs", "FS.Apply", root.ID, ev.Path)
		w0 := time.Now()
		err := s.fs.Apply(ev)
		applyHost = append(applyHost, time.Since(w0))
		tr.end(sp)
		if err != nil {
			applyErr = err
			break
		}
	}
	if err := s.fs.Drain(); err != nil && applyErr == nil {
		applyErr = err
	}
	appElapsed := env.Now() - t0
	tracked := indices(0, len(p.closeAt))
	drainErr := f.waitDurable(tracked, 10*appElapsed)
	tr.end(root)

	// Let every eventually consistent write settle before reading back.
	env.Clock().Sleep(20 * env.Config().StalenessMean)
	rb := tr.begin("bench", "blast.readback", 0, "")
	qlat, bad, results := readBack(c, env, f.dep, tr, rb.ID, p.committed, p.files(readBackQueries), readBackConns)
	tr.end(rb)
	var sampled *sampler
	if tr != nil {
		close(stopSampling)
		sampled = <-samples
	}
	d.u1, d.r1 = env.Meter().Usage(), resTotals(f.dep)
	h.finish(r)

	if err := f.freeze(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("settle: %v", err))
	}
	f.dep.Settle()
	if applyErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("replay: %v", applyErr))
	}
	if drainErr != nil {
		r.problems = append(r.problems, drainErr.Error())
	}
	if bad > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d read-back queries returned wrong provenance", bad))
	}
	r.problems = append(r.problems, checkClean(f)...)
	if refs, _, err := newEngine(f.dep).DirectOutputsOf("blastall", 8); err != nil || len(refs) != blastOutputs {
		r.problems = append(r.problems, fmt.Sprintf("DirectOutputsOf(blastall) returned %d files (%v), want %d", len(refs), err, blastOutputs))
	}

	commit, dwell := p.latencies()
	addLatencies(r, "commit", commit)
	addLatencies(r, "ack", p.ackLat)
	addLatencies(r, "query", qlat)
	r.e2e["peak_tps"] = p.durableRate(t0)
	r.e2e["app_elapsed_s"] = appElapsed.Seconds()
	closes := len(p.ackLat) + p.failed
	ops := closes + len(qlat)
	r.attempted = ops
	r.failed = p.failed + bad
	r.e2e["usd_per_1k_ops"] = 1000 * d.cost() / float64(ops)
	r.e2e["bytes_in_per_user_byte"] = ratio(float64(d.u1.BytesIn-d.u0.BytesIn), float64(p.userBytes))

	fabricLayers(r.layer, f, d, sampled, closes, ops, len(qlat), results, dwell)
	r.layer["samples.commit"], r.layer["samples.ack"] = float64(len(commit)), float64(len(p.ackLat))
	r.layer["query.p50_ms.versions"] = percentile(qlat, 50).Value
	r.layer["pasfs.apply_us"] = float64(percentile(applyHost, 50).Value * 1000)
	r.layer["pasfs.commit_p50_ms"] = percentile(p.callLat, 50).Value
	r.layer["pass.bundles_per_commit"] = ratio(float64(p.bundles), float64(closes))
	r.layer["pass.bytes_per_commit"] = ratio(float64(p.bundleBytes), float64(closes))
	r.notes = append(r.notes, fmt.Sprintf("  replay: %d events, %d closes, %d with new provenance", len(applyHost), closes, len(commit)))
	finishTrace(r, tr)
	return r, nil
}

// timedProtocol wraps P3 as PA-S3fs's storage protocol and times each
// commit: from the file's close (noted by the replay loop) to P3.Commit
// returning, and — for commits that carry the file's new version — to the
// commit notice naming it.
type timedProtocol struct {
	core.Protocol
	env    *sim.Env
	trk    *tracker
	tr     *tracer
	parent int64

	mu          sync.Mutex
	closes      map[string][]time.Duration // pending close times per path, in order
	closeAt     []time.Duration            // per tracked commit
	ackAt       []time.Duration            // per tracked commit, 0 until it returns
	ackLat      []time.Duration            // close to Commit return, every commit
	callLat     []time.Duration            // P3.Commit call duration, every commit
	committed   map[uuid.UUID][]prov.Bundle
	order       []uuid.UUID // file objects in first-commit order
	bundles     int
	bundleBytes int
	userBytes   int64
	failed      int
}

// noteClose records that the replay is about to close (or flush) path.
func (p *timedProtocol) noteClose(path string) {
	p.mu.Lock()
	p.closes[path] = append(p.closes[path], p.env.Now())
	p.mu.Unlock()
}

func (p *timedProtocol) Commit(obj core.FileObject, bundles []prov.Bundle) error {
	p.mu.Lock()
	q := p.closes[obj.Path]
	closeAt := q[0] // PA-S3fs commits each path's closes in order
	p.closes[obj.Path] = q[1:]
	idx := -1
	for _, b := range bundles {
		if b.Ref == obj.Ref {
			idx = p.trk.add(obj.Ref.String())
			p.closeAt = append(p.closeAt, closeAt)
			p.ackAt = append(p.ackAt, 0)
		}
		if _, seen := p.committed[b.Ref.UUID]; !seen && b.Type == prov.File {
			p.order = append(p.order, b.Ref.UUID)
		}
		p.committed[b.Ref.UUID] = append(p.committed[b.Ref.UUID], b)
		p.bundleBytes += b.Size()
	}
	p.bundles += len(bundles)
	p.userBytes += obj.Size
	p.mu.Unlock()

	sp := p.tr.begin("core", "P3.Commit", p.parent, obj.Path)
	c0 := p.env.Now()
	err := p.Protocol.Commit(obj, bundles)
	now := p.env.Now()
	p.tr.end(sp)

	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.failed++
		return err
	}
	p.callLat = append(p.callLat, now-c0)
	p.ackLat = append(p.ackLat, now-closeAt)
	if idx >= 0 {
		p.ackAt[idx] = now
	}
	return nil
}

// latencies returns close-to-notice latencies and notice-minus-ack dwell of
// the tracked commits.
func (p *timedProtocol) latencies() (commit, dwell []time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.closeAt {
		d := p.trk.at(i)
		if d < 0 {
			continue
		}
		commit = append(commit, d-c)
		if p.ackAt[i] > 0 {
			dwell = append(dwell, max(d-p.ackAt[i], 0))
		}
	}
	return commit, dwell
}

// durableRate is the tracked commits made durable per simulated second
// from the replay's start until the last of them was durable: the rate the
// fabric sustained under the application.
func (p *timedProtocol) durableRate(from time.Duration) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var last time.Duration
	for i := range p.closeAt {
		last = max(last, p.trk.at(i))
	}
	return ratio(float64(len(p.closeAt)), (last - from).Seconds())
}

// files picks n committed file objects spread evenly over commit order.
func (p *timedProtocol) files(n int) []uuid.UUID {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = min(n, len(p.order))
	out := make([]uuid.UUID, n)
	for i := range out {
		out[i] = p.order[i*len(p.order)/n]
	}
	return out
}
