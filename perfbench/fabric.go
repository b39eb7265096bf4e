package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// Settings every P3 workload shares.
const (
	daemonPoll      = 500 * time.Millisecond // commit-daemon sleep when its shards are empty
	readBackQueries = 1000                   // uncached versions queries after each write workload
	readBackConns   = 2                      // readers; they collide at the read gates now and then
)

// fabric is one P3 deployment under test plus the bookkeeping the
// benchmark keeps about it from outside: which generated transaction became
// durable when, and what each client call returned.
type fabric struct {
	env *sim.Env
	dep *core.Deployment
	p3  *core.P3
	tr  *tracer
	trk *tracker

	txns []txn
	due  []time.Duration // absolute due time of each launched txn
	ack  []time.Duration // Commit return time, 0 until it returns

	inflight sync.WaitGroup
	failed   atomic.Int64
	lateMax  atomic.Int64 // generator lateness, simulated ns

	stopDaemon func()
}

// newEnv makes a manual-clock environment with strict consistency, so
// commit and query timings measure queueing and service time rather than
// retries caused by eventually consistent reads; goLive switches it to the
// workload's live scale once set-up is done.
func newEnv(seed int64) *sim.Env {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Consistency = sim.Strict
	return sim.NewEnv(cfg)
}

func newFabric(env *sim.Env, k, workers int, txns []txn) *fabric {
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: k, DBShards: k})
	f := &fabric{
		env:  env,
		dep:  dep,
		p3:   core.NewP3(dep, core.Options{CommitWorkers: workers}),
		txns: txns,
		due:  make([]time.Duration, len(txns)),
		ack:  make([]time.Duration, len(txns)),
	}
	keys := make([]string, len(txns))
	for i, t := range txns {
		keys[i] = t.key
	}
	f.trk = newTracker(env, keys)
	dep.Commits.Subscribe(f.trk.onNotice)
	return f
}

// goLive starts the live clock at scale and the commit-daemon pool.
func (f *fabric) goLive(scale float64, poll time.Duration) {
	f.env.Clock().SetScale(scale)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		f.p3.RunDaemon(stop, poll)
	}()
	var once sync.Once
	f.stopDaemon = func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}
}

// freeze stops the daemons and the live clock: what follows (drain,
// verification) runs on the instant manual clock and is not measured.
func (f *fabric) freeze() error {
	f.inflight.Wait()
	if f.stopDaemon != nil {
		f.stopDaemon()
	}
	f.env.Clock().SetScale(0)
	return f.p3.Settle()
}

// launch commits txns[i] for i in idx, each due at t0+at[n], from this one
// generator goroutine: the stream is open loop, so a slow fabric does not
// slow the arrivals. Commits run on their own goroutines; inflight tracks
// them.
func (f *fabric) launch(idx []int, t0 time.Duration, at []time.Duration, parent int64) {
	for n, i := range idx {
		due := t0 + at[n]
		f.env.Clock().SleepUntil(due)
		if late := f.env.Now() - due; late > time.Duration(f.lateMax.Load()) {
			f.lateMax.Store(int64(late))
		}
		f.due[i] = due
		f.inflight.Add(1)
		go func(i int) {
			defer f.inflight.Done()
			f.commit(i, parent)
		}(i)
	}
}

// commit runs the log phase of txns[i] and records when it returned.
func (f *fabric) commit(i int, parent int64) {
	t := &f.txns[i]
	sp := f.tr.begin("core", "P3.Commit", parent, strconv.Itoa(i))
	err := f.p3.Commit(t.obj, t.bundles)
	f.tr.end(sp)
	if err != nil {
		f.failed.Add(1)
		return
	}
	f.ack[i] = f.env.Now()
}

// waitDurable sleeps on the simulated clock until every transaction in idx
// is durable or limit of simulated time has passed.
func (f *fabric) waitDurable(idx []int, limit time.Duration) error {
	deadline := f.env.Now() + limit
	for {
		left := 0
		for _, i := range idx {
			if f.trk.at(i) < 0 {
				left++
			}
		}
		if left == 0 {
			return nil
		}
		if f.env.Now() > deadline {
			return fmt.Errorf("%d transactions not durable after %s", left, limit)
		}
		f.env.Clock().Sleep(250 * time.Millisecond)
	}
}

// latencies returns the commit (due to durable notice) and ack (due to
// Commit return) latencies and the durable-minus-ack dwell of idx.
func (f *fabric) latencies(idx []int) (commit, ack, dwell []time.Duration) {
	for _, i := range idx {
		d := f.trk.at(i)
		if f.ack[i] > 0 {
			ack = append(ack, f.ack[i]-f.due[i])
		}
		if d >= 0 {
			commit = append(commit, d-f.due[i])
			if f.ack[i] > 0 {
				dwell = append(dwell, max(d-f.ack[i], 0))
			}
		}
	}
	return commit, ack, dwell
}

// drainBacklog waits until every txn of a backlog launched at from is
// durable and the WAL is empty, and returns the backlog's size over the
// simulated time that took. P3 absorbs a backlog in a few large group
// commits whose notices come before their copies, so the last notice lands
// a group earlier or later from seed to seed; the drained WAL marks the end
// of the work the gates must do, which is steady.
func (f *fabric) drainBacklog(idx []int, from, limit time.Duration) (float64, error) {
	if err := f.waitDurable(idx, limit); err != nil {
		return 0, err
	}
	for f.dep.WAL.Len() > 0 {
		if f.env.Now() > from+limit {
			return 0, fmt.Errorf("WAL not drained after %s", limit)
		}
		f.env.Clock().Sleep(250 * time.Millisecond)
	}
	return ratio(float64(len(idx)), (f.env.Now() - from).Seconds()), nil
}

// tracker records, from the commit bus, when each generated transaction's
// object item was published as committed.
type tracker struct {
	env *sim.Env

	mu      sync.Mutex
	idx     map[string]int
	durable []time.Duration // -1 until the notice arrives
	txnOf   []uuid.UUID
	wake    map[int]chan struct{}

	notices, noticeTxns, noticeItems int64
}

func newTracker(env *sim.Env, keys []string) *tracker {
	k := &tracker{
		env:     env,
		idx:     make(map[string]int, len(keys)),
		durable: make([]time.Duration, len(keys)),
		txnOf:   make([]uuid.UUID, len(keys)),
		wake:    make(map[int]chan struct{}),
	}
	for i, key := range keys {
		k.idx[key] = i
		k.durable[i] = -1
	}
	return k
}

// onNotice is the bus subscriber; it runs under the bus lock and only
// records.
func (k *tracker) onNotice(n core.CommitNotice) int64 {
	now := k.env.Now()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.notices++
	k.noticeTxns += int64(len(n.Txns))
	k.noticeItems += int64(len(n.Items))
	for _, it := range n.Items {
		i, ok := k.idx[it.Name]
		if !ok || k.durable[i] >= 0 {
			continue
		}
		k.durable[i] = now
		k.txnOf[i] = it.Txn
		if ch := k.wake[i]; ch != nil {
			close(ch)
			delete(k.wake, i)
		}
	}
	return 0
}

// add starts tracking one more object item and returns its index.
func (k *tracker) add(key string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := len(k.durable)
	k.idx[key] = i
	k.durable = append(k.durable, -1)
	k.txnOf = append(k.txnOf, uuid.UUID{})
	return i
}

// at returns when txn i became durable, or -1.
func (k *tracker) at(i int) time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.durable[i]
}

// durableCh returns a channel closed once txn i is durable.
func (k *tracker) durableCh(i int) <-chan struct{} {
	k.mu.Lock()
	defer k.mu.Unlock()
	ch := make(chan struct{})
	if k.durable[i] >= 0 {
		close(ch)
	} else {
		k.wake[i] = ch
	}
	return ch
}

// readBack issues one uncached versions query per object (the paper's Q2
// shape: the provenance of every version of one object), conc at a time,
// and checks each result against want, the bundles committed for it. It
// returns the query latencies, the number of queries that failed or returned
// wrong provenance, and the results returned.
func readBack(c config, env *sim.Env, dep *core.Deployment, tr *tracer, parent int64, want map[uuid.UUID][]prov.Bundle, objs []uuid.UUID, conc int) (lat []time.Duration, bad int, results int) {
	env.Clock().SetScale(c.readScale)
	eng := query.New(dep, core.BackendSDB)
	var mu sync.Mutex
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for n, u := range objs {
		sem <- struct{}{}
		wg.Add(1)
		go func(n int, u uuid.UUID) {
			defer wg.Done()
			defer func() { <-sem }()
			sp := tr.begin("query", "Engine.Run/versions", parent, "q"+strconv.Itoa(n))
			t0 := env.Now()
			got, err := eng.CollectBundles(query.Spec{Roots: query.Roots{UUIDs: []uuid.UUID{u}}, Direction: query.Versions})
			d := env.Now() - t0
			tr.end(sp)
			ok := err == nil && canonical(got) == canonical(want[u])
			mu.Lock()
			defer mu.Unlock()
			lat = append(lat, d)
			results += len(got)
			if !ok {
				bad++
			}
		}(n, u)
	}
	wg.Wait()
	return lat, bad, results
}

// sampler reads the fabric's gauges on a fixed simulated interval while the
// traced run measures.
type sampler struct {
	gateMax    map[string]float64
	pendingMax int
	walMax     int
	ticks      []tick
}

// tick is one sample of the counters the reshard's stages are inferred
// from.
type tick struct {
	at        time.Duration
	copyBatch int64
	gcPending bool
}

// gateClasses are the rate-gate classes the per-layer metrics report.
var gateClasses = []string{"sdb-write", "sdb-read", "sqs", "s3-write"}

// runSampler samples every interval until stop closes, then returns what it
// saw on done.
func runSampler(f *fabric, every time.Duration, stop <-chan struct{}) <-chan *sampler {
	out := make(chan *sampler, 1)
	go func() {
		s := &sampler{gateMax: make(map[string]float64)}
		for {
			select {
			case <-stop:
				out <- s
				return
			default:
			}
			for name, d := range f.env.GateDepths() {
				for _, c := range gateClasses {
					if name == c || strings.HasPrefix(name, c+"-") {
						s.gateMax[c] = max(s.gateMax[c], d)
					}
				}
			}
			s.pendingMax = max(s.pendingMax, f.p3.PendingTxns())
			s.walMax = max(s.walMax, f.dep.WAL.Len())
			s.ticks = append(s.ticks, tick{
				at:        f.env.Now(),
				copyBatch: f.env.Meter().Usage().OpsByKind["reshard.copyBatch"],
				gcPending: f.dep.GCPending(),
			})
			f.env.Clock().Sleep(every)
		}
	}()
	return out
}

// usageDelta is the part of the meter a measured phase is charged for.
type usageDelta struct {
	u0, u1 sim.Usage
	r0, r1 resilient.EndpointStats
}

func (d usageDelta) ops(kind string) float64 {
	return float64(d.u1.OpsByKind[kind] - d.u0.OpsByKind[kind])
}

func (d usageDelta) opsPrefix(prefix string) float64 {
	var n int64
	for k, v := range d.u1.OpsByKind {
		if strings.HasPrefix(k, prefix) {
			n += v - d.u0.OpsByKind[k]
		}
	}
	return float64(n)
}

func (d usageDelta) cost() float64 { return d.u1.Cost(0) - d.u0.Cost(0) }

// shardSkew is the busiest provenance domain's request count over the mean
// across domains.
func (d usageDelta) shardSkew() float64 {
	var sum, top float64
	n := 0
	for ep, v := range d.u1.OpsByEndpoint {
		if ep != core.DomainName && !strings.HasPrefix(ep, core.DomainName+"-") {
			continue
		}
		x := float64(v - d.u0.OpsByEndpoint[ep])
		sum += x
		top = max(top, x)
		n++
	}
	return ratio(top, sum/float64(max(n, 1)))
}

func resTotals(dep *core.Deployment) resilient.EndpointStats {
	if dep.Res == nil {
		return resilient.EndpointStats{}
	}
	return dep.Res.Stats().Totals()
}

// fabricLayers fills the per-layer metrics every P3 workload shares.
// txns is the number of transactions the phase committed, queries the
// number of queries it ran and results the results they returned.
func fabricLayers(m map[string]float64, f *fabric, d usageDelta, s *sampler, txns, ops, queries, results int, dwell []time.Duration) {
	if s != nil {
		for _, c := range gateClasses {
			m["sim.gate_depth_max."+c] = s.gateMax[c]
		}
		m["p3.pending_max"] = float64(s.pendingMax)
		m["sqs.wal_depth_max"] = float64(s.walMax)
	}
	m["sim.billed_ops_per_op"] = ratio(float64(d.u1.TotalOps-d.u0.TotalOps), float64(ops))
	m["sim.faults_injected"] = float64(d.u1.Faults - d.u0.Faults)

	nt := float64(txns)
	receives := d.ops("sqs.ReceiveMessage")
	m["sqs.sends_per_txn"] = ratio(d.ops("sqs.SendMessage")+d.ops("sqs.SendMessageBatch"), nt)
	m["sqs.receives_per_txn"] = ratio(receives, nt)
	m["sqs.useful_receive_ratio"] = ratio(nt, receives)

	batches := d.ops("sdb.BatchPutAttributes")
	f.trk.mu.Lock()
	notices, noticeTxns, noticeItems := f.trk.notices, f.trk.noticeTxns, f.trk.noticeItems
	f.trk.mu.Unlock()
	m["sdb.batch_puts_per_txn"] = ratio(batches, nt)
	m["sdb.batch_fill"] = ratio(float64(noticeItems), batches*25)
	m["sdb.shard_skew"] = d.shardSkew()
	m["sdb.selects_per_query"] = ratio(d.ops("sdb.Select"), float64(queries))
	m["sdb.items_examined_per_result"] = ratio(float64(d.u1.ItemsExamined-d.u0.ItemsExamined), float64(results))

	m["s3.ops_per_txn"] = ratio(d.opsPrefix("s3."), nt)
	m["s3.bytes_in_per_commit"] = ratio(float64(d.u1.BytesByKind["s3.PUT"]-d.u0.BytesByKind["s3.PUT"]), nt)

	m["resilient.retry_ratio"] = ratio(float64(d.r1.Retries-d.r0.Retries), float64(d.r1.Attempts-d.r0.Attempts))
	m["resilient.hedges"] = float64(d.r1.Hedges - d.r0.Hedges)
	m["resilient.budget_denials"] = float64(d.r1.BudgetDenials - d.r0.BudgetDenials)
	m["resilient.breaker_opens"] = float64(d.r1.BreakerOpens - d.r0.BreakerOpens)

	m["p3.dwell_p50_ms"] = percentile(dwell, 50).Value
	m["p3.dwell_p99_ms"] = percentile(dwell, 99).Value
	m["p3.txns_per_notice"] = ratio(float64(noticeTxns), float64(notices))
	m["bus.items_per_notice"] = ratio(float64(noticeItems), float64(notices))
	m["gen.lateness_max_ms"] = ms(time.Duration(f.lateMax.Load()))
}

// indices returns [lo, hi).
func indices(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// checkClean verifies the fabric is drained: nothing left in the WAL, no
// temporary objects, no pending transactions, and every item on exactly its
// home shard.
func checkClean(f *fabric) []string {
	var bad []string
	if n := f.dep.WAL.Len(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d WAL messages left", n))
	}
	if keys, _, err := f.dep.Store.ListAll(core.TmpPrefix); err != nil || len(keys) != 0 {
		bad = append(bad, fmt.Sprintf("%d temporary objects left (%v)", len(keys), err))
	}
	if n := f.p3.PendingTxns(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d transactions pending", n))
	}
	mis, dup, err := core.AuditFabric(f.dep)
	if err != nil || mis != 0 || dup != 0 {
		bad = append(bad, fmt.Sprintf("audit: %d misplaced, %d duplicated (%v)", mis, dup, err))
	}
	return bad
}

// checkCommitted verifies every txn returned and became durable, and that
// each data object is linked to the provenance of one of the versions
// committed for its path. (Commits of one path may finish copying in either
// order, so which version's data survives is not pinned.)
func checkCommitted(f *fabric, idx []int) []string {
	var bad []string
	missing := 0
	versions := make(map[string]map[prov.Ref]bool)
	for _, i := range idx {
		if f.ack[i] == 0 || f.trk.at(i) < 0 {
			missing++
			continue
		}
		t := f.txns[i]
		if versions[t.obj.Path] == nil {
			versions[t.obj.Path] = make(map[prov.Ref]bool)
		}
		versions[t.obj.Path][t.obj.Ref] = true
	}
	unlinked := 0
	for path, refs := range versions {
		meta, err := f.dep.Store.Head(core.DataKey(path))
		if err != nil {
			unlinked++
			continue
		}
		ref, err := prov.ParseRef(meta[core.MetaUUID] + "_" + meta[core.MetaVersion])
		if err != nil || !refs[ref] {
			unlinked++
		}
	}
	if missing > 0 {
		bad = append(bad, fmt.Sprintf("%d transactions never acknowledged or durable", missing))
	}
	if unlinked > 0 {
		bad = append(bad, fmt.Sprintf("%d data objects not linked to their provenance", unlinked))
	}
	return bad
}

// newEngine returns an uncached query engine over the fabric's database.
func newEngine(dep *core.Deployment) *query.Engine { return query.New(dep, core.BackendSDB) }
