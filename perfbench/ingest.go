package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"passcloud/internal/sim"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
)

// The ingest workload: an open-loop Poisson stream of P3 transactions from
// one generator onto a K=4 fabric with a commit-daemon pool, a transparency
// log checkpointing on a fixed simulated interval, and a seeded transient
// fault plan, half of it ambiguous on mutating ops. A fixed-rate phase
// below capacity gives the latencies; a backlog burst then gives peak_tps.
const (
	ingestShards     = 4
	ingestWorkers    = 8
	ingestRate       = 15.0 // txn per simulated second, about half of capacity
	ingestFixedShare = 0.5  // of the window spent at the fixed rate
	ingestBurstPerS  = 5.0  // burst txns per simulated second of window
	// ingestFaultProb is the per-request transient fault rate. At 1% the
	// ack p99 sits exactly between the PUT-retry and the send-retry modes
	// (each about 1% of commits) and flips between them from seed to seed;
	// at 2% it sits inside the PUT-retry mode.
	ingestFaultProb = 0.02
	ingestCkptEvery = 10 * time.Second
)

type ingestSetup struct {
	f     *fabric
	g     *gen
	log   *translog.Log
	dues  []time.Duration
	fixed []int
	burst []int
}

func buildIngest(c config) (*ingestSetup, error) {
	w := c.window()
	rnd := sim.NewRand(c.seed)
	dues := poissonDues(rnd, int(ingestRate*w.Seconds()*2), ingestRate)
	nFixed := 0
	for nFixed < len(dues) && dues[nFixed] < time.Duration(ingestFixedShare*float64(w)) {
		nFixed++
	}
	dues = dues[:nFixed]
	nBurst := int(ingestBurstPerS * w.Seconds())
	g := newGen(rnd, "ingest", 1.5)
	txns := make([]txn, nFixed+nBurst)
	for i := range txns {
		txns[i] = g.next()
	}
	env := newEnv(c.seed)
	f := newFabric(env, ingestShards, ingestWorkers, txns)
	log := translog.New(env, f.dep.Store, "")
	log.Attach(f.dep.Commits)
	return &ingestSetup{f: f, g: g, log: log, dues: dues, fixed: indices(0, nFixed), burst: indices(nFixed, nFixed+nBurst)}, nil
}

func runIngest(c config) (*result, error) {
	s, setupS, err := timedSetup(func() (*ingestSetup, error) { return buildIngest(c) })
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
	env.InstallFaults(sim.UniformPlan(ingestFaultProb, 0.5))

	var samples <-chan *sampler
	stopSampling := make(chan struct{})
	if tr != nil {
		samples = runSampler(f, time.Second, stopSampling)
	}
	ckpt := startCheckpointer(env, s.log, tr, ingestCkptEvery)

	root := tr.begin("bench", "ingest.window", 0, "")
	t0 := env.Now()
	f.launch(s.fixed, t0, s.dues, root.ID)
	drainErr := f.waitDurable(s.fixed, 10*w)
	// The burst starts once the fixed-rate phase is durable, so its backlog
	// does not leak into the fixed-rate latencies, and runs unfaulted, so a
	// retried straggler does not set the time the backlog took to clear.
	env.InstallFaults(nil)
	burstAt := f.env.Now() - t0
	f.launch(s.burst, t0, burstDues(len(s.burst), burstAt), root.ID)
	peak, burstErr := f.drainBacklog(s.burst, t0+burstAt, 10*w)
	if drainErr == nil {
		drainErr = burstErr
	}
	f.inflight.Wait()
	var lastAck time.Duration
	for _, a := range f.ack {
		lastAck = max(lastAck, a)
	}
	all := indices(0, len(f.txns))
	if err := f.waitDurable(all, 10*w); drainErr == nil {
		drainErr = err
	}
	tr.end(root)

	objs := sampleObjects(f.txns, readBackQueries)
	rb := tr.begin("bench", "ingest.readback", 0, "")
	qlat, bad, results := readBack(c, env, f.dep, tr, rb.ID, s.g.objects, objs, readBackConns)
	tr.end(rb)
	ckptSim, ckptWall, ckptErrs := ckpt.stop()
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
	if drainErr != nil {
		r.problems = append(r.problems, drainErr.Error())
	}
	if bad > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d read-back queries returned the wrong ancestry", bad))
	}
	r.problems = append(r.problems, checkCommitted(f, all)...)
	r.problems = append(r.problems, checkClean(f)...)
	r.problems = append(r.problems, checkItems(f, s.g)...)
	r.problems = append(r.problems, checkLog(s.log, f)...)

	commit, ack, dwell := f.latencies(s.fixed)
	addLatencies(r, "commit", commit)
	addLatencies(r, "ack", ack)
	addLatencies(r, "query", qlat)
	r.e2e["peak_tps"] = peak
	r.e2e["app_elapsed_s"] = (lastAck - t0).Seconds()
	ops := len(f.txns) + len(qlat)
	r.attempted = ops
	r.failed = int(f.failed.Load()) + bad
	r.e2e["usd_per_1k_ops"] = 1000 * d.cost() / float64(ops)
	r.e2e["bytes_in_per_user_byte"] = ratio(float64(d.u1.BytesIn-d.u0.BytesIn), float64(userBytes(f.txns)))

	fabricLayers(r.layer, f, d, sampled, len(f.txns), ops, len(qlat), results, dwell)
	r.layer["samples.commit"], r.layer["samples.ack"] = float64(len(commit)), float64(len(ack))
	r.layer["query.p50_ms.versions"] = percentile(qlat, 50).Value
	r.layer["translog.checkpoint_p50_ms"] = percentile(ckptSim, 50).Value
	r.layer["translog.checkpoint_wall_ms"] = percentile(ckptWall, 50).Value
	r.layer["translog.leaves"] = float64(s.log.Size())
	r.notes = append(r.notes, fmt.Sprintf("  checkpoints: %d (%d absorbed failures); burst %d txns", len(ckptSim), ckptErrs, len(s.burst)))
	finishTrace(r, tr)
	return r, nil
}

// checkpointer checkpoints the transparency log on a fixed simulated
// interval, timing each checkpoint on both clocks.
type checkpointer struct {
	stopCh chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	simLat   []time.Duration
	wallLat  []time.Duration
	absorbed int // failed checkpoints, rolled forward by the next one

	stopOnce   sync.Once
	checkpoint func() error
}

func startCheckpointer(env *sim.Env, l *translog.Log, tr *tracer, every time.Duration) *checkpointer {
	c := &checkpointer{stopCh: make(chan struct{}), done: make(chan struct{})}
	c.checkpoint = func() error {
		sp := tr.begin("translog", "Log.Checkpoint", 0, "")
		t0, w0 := env.Now(), time.Now()
		_, err := l.Checkpoint()
		simD, wallD := env.Now()-t0, time.Since(w0)
		tr.end(sp)
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil {
			c.absorbed++
			return err
		}
		c.simLat = append(c.simLat, simD)
		c.wallLat = append(c.wallLat, wallD)
		return nil
	}
	go func() {
		defer close(c.done)
		for {
			// Sleep in short steps so stop is seen promptly.
			for slept := time.Duration(0); slept < every; slept += time.Second {
				select {
				case <-c.stopCh:
					return
				default:
				}
				env.Clock().Sleep(time.Second)
			}
			_ = c.checkpoint() // a failed stage rolls forward at the next tick
		}
	}()
	return c
}

// stop ends the daemon and takes a final checkpoint, retrying through
// injected faults (every stage is idempotent).
func (c *checkpointer) stop() (simLat, wallLat []time.Duration, absorbed int) {
	c.stopOnce.Do(func() { close(c.stopCh) })
	<-c.done
	for i := 0; i < 50; i++ {
		if err := c.checkpoint(); err == nil || errors.Is(err, translog.ErrCrashed) {
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simLat, c.wallLat, c.absorbed
}

// sampleObjects picks n transactions' objects spread evenly over txns.
func sampleObjects(txns []txn, n int) []uuid.UUID {
	n = min(n, len(txns))
	out := make([]uuid.UUID, n)
	for i := range out {
		out[i] = txns[i*len(txns)/n].obj.Ref.UUID
	}
	return out
}

func userBytes(txns []txn) int64 {
	var n int64
	for _, t := range txns {
		n += t.obj.Size
	}
	return n
}

// checkItems verifies the item count is exact and the read-back digest
// equals the digest of the generated bundles.
func checkItems(f *fabric, g *gen) []string {
	var bad []string
	if got, want := f.dep.DB.ItemCount(), g.items(); got != want {
		bad = append(bad, fmt.Sprintf("%d provenance items stored, want %d", got, want))
	}
	stored, err := g.digestStored(f.dep)
	if err != nil {
		return append(bad, err.Error())
	}
	if want := g.digestGenerated(); stored != want {
		bad = append(bad, fmt.Sprintf("read-back digest %.12s differs from generated %.12s", stored, want))
	}
	return bad
}

// checkLog verifies every transaction's inclusion proof against the
// transparency log.
func checkLog(l *translog.Log, f *fabric) []string {
	failed := 0
	for i := range f.txns {
		p, err := l.ProveInclusion(f.trk.txnOf[i])
		if err != nil || !p.Verify() {
			failed++
		}
	}
	if failed > 0 {
		return []string{fmt.Sprintf("%d transactions without a verifying inclusion proof", failed)}
	}
	return nil
}
