package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The lineage workload: a corpus of small derivation DAGs preloaded on a K=4
// fabric, queried by two closed-loop analysts through one subscribed cache
// while a low-rate open-loop stream of P3 commits extends the hot lineages.
// Lineages are picked zipf-popular, so the hot set fits the cache while the
// working set is several times its size.
const (
	lineageShards      = 4
	lineageWorkers     = 4
	lineageCount       = 1200 // lineages of 11 items: ~13k items, ~30k cacheable entries
	lineageZipf        = 0.8
	lineageAnalysts    = 2
	lineageQPS         = 20.0 // queries per simulated second of window the analysts are given
	lineageTrickle     = 8.0  // txn per simulated second
	lineageBurst       = 250  // txns due together once the trickle is durable
	lineageCheckEvery  = 10   // every n-th trickle txn is read back after its notice
	lineageSampleEvery = 25   // every n-th analyst query is re-run uncached in the gate
)

// lineage is one preloaded derivation DAG: src(2 versions) -> stage1 ->
// three files -> stage2 -> two files -> stage3 -> out, where out gains a
// version with every trickle commit.
type lineage struct {
	tag  string
	src  prov.Ref // second version of the source
	out  uuid.UUID
	last prov.Ref // the out version the generated ones start from
	p3   prov.Ref // stage3, out's writer
}

type lineageSetup struct {
	f       *fabric
	eng     *query.Engine
	queries [][]lineageQuery // per analyst
	dues    []time.Duration
	trickle []int
	burst   []int
	items   int // items the corpus plus every generated txn should leave
}

type lineageQuery struct {
	kind int // index into queryKinds
	spec query.Spec
}

// kindMix weights queryKinds. The kinds' latencies form separate modes; with
// these weights the median falls inside one mode (attr) instead of on the
// boundary between two, where it would flip from seed to seed.
var kindMix = []float64{0.3, 0.2, 0.2, 0.3}

func pickKind(rnd *sim.Rand) int {
	u := rnd.Float64()
	for k, w := range kindMix {
		if u < w {
			return k
		}
		u -= w
	}
	return len(kindMix) - 1
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z zipf) draw(rnd *sim.Rand) int {
	u := rnd.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lineageCorpus makes the preloaded bundles.
func lineageCorpus(rnd *sim.Rand) ([]lineage, []prov.Bundle) {
	lins := make([]lineage, lineageCount)
	var all []prov.Bundle
	for j := range lins {
		tag := fmt.Sprintf("L%04d", j)
		node := func(ref prov.Ref, typ prov.ObjectType, name string, xrefs ...prov.Record) prov.Bundle {
			recs := []prov.Record{
				{Attr: prov.AttrType, Value: typ.String()},
				{Attr: prov.AttrName, Value: name},
				{Attr: "lineage", Value: tag},
			}
			b := prov.Bundle{Ref: ref, Type: typ, Name: name, Records: append(recs, xrefs...)}
			all = append(all, b)
			return b
		}
		in := func(r prov.Ref) prov.Record { return prov.Record{Attr: prov.AttrInput, Xref: r} }
		fresh := func() prov.Ref { return prov.Ref{UUID: uuid.New(rnd), Version: 1} }

		base := "lin/" + tag + "/"
		src1 := fresh()
		src2 := prov.Ref{UUID: src1.UUID, Version: 2}
		node(src1, prov.File, base+"src")
		node(src2, prov.File, base+"src", prov.Record{Attr: prov.AttrPrevVer, Xref: src1})
		p1 := node(fresh(), prov.Process, "stage1", in(src2)).Ref
		var mid []prov.Record
		for k := 0; k < 3; k++ {
			mid = append(mid, in(node(fresh(), prov.File, base+"a"+strconv.Itoa(k), in(p1)).Ref))
		}
		p2 := node(fresh(), prov.Process, "stage2", mid...).Ref
		var late []prov.Record
		for k := 0; k < 2; k++ {
			late = append(late, in(node(fresh(), prov.File, base+"b"+strconv.Itoa(k), in(p2)).Ref))
		}
		p3 := node(fresh(), prov.Process, "stage3", late...).Ref
		out := node(fresh(), prov.File, base+"out", in(p3)).Ref
		lins[j] = lineage{tag: tag, src: src2, out: out.UUID, last: out, p3: p3}
	}
	return lins, all
}

// spec builds one analyst query of kind k on lineage l.
func (l lineage) spec(k int) query.Spec {
	switch queryKinds[k] {
	case "descendants":
		return query.Spec{Roots: query.Roots{Refs: []prov.Ref{l.src}}, Direction: query.Descendants, Workers: 4}
	case "ancestors":
		return query.Spec{Roots: query.Roots{Refs: []prov.Ref{{UUID: l.out, Version: 1}}}, Direction: query.Ancestors, Workers: 4}
	case "versions":
		return query.Spec{Roots: query.Roots{UUIDs: []uuid.UUID{l.out}}, Direction: query.Versions}
	default:
		return query.Spec{
			Roots:     query.Roots{Attrs: []query.AttrMatch{{Attr: "lineage", Value: l.tag}}},
			Direction: query.Self,
			Filter:    query.TypeIs(prov.File),
		}
	}
}

func buildLineage(c config) (*lineageSetup, error) {
	w := c.window()
	rnd := sim.NewRand(c.seed)
	lins, corpus := lineageCorpus(rnd)
	z := newZipf(lineageCount, lineageZipf)

	// Trickle and burst transactions: a new version of a hot lineage's
	// output, written by the lineage's last stage.
	dues := poissonDues(rnd, int(lineageTrickle*w.Seconds()*2), lineageTrickle)
	n := 0
	for n < len(dues) && dues[n] < w {
		n++
	}
	dues = dues[:n]
	txns := make([]txn, n+lineageBurst)
	for i := range txns {
		l := &lins[z.draw(rnd)]
		ref := prov.Ref{UUID: l.out, Version: l.last.Version + 1}
		path := "mnt/lin/" + l.tag + "/out"
		b := prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: []prov.Record{
			{Attr: prov.AttrType, Value: "file"},
			{Attr: prov.AttrName, Value: path},
			{Attr: "lineage", Value: l.tag},
			{Attr: prov.AttrInput, Xref: l.p3},
			{Attr: prov.AttrPrevVer, Xref: l.last},
		}}
		l.last = ref
		txns[i] = txn{obj: core.FileObject{Path: path, Size: 4 << 10, Ref: ref}, bundles: []prov.Bundle{b}, key: ref.String()}
	}

	per := int(lineageQPS * w.Seconds() / lineageAnalysts)
	queries := make([][]lineageQuery, lineageAnalysts)
	for a := range queries {
		qs := make([]lineageQuery, per)
		for i := range qs {
			k := pickKind(rnd)
			qs[i] = lineageQuery{kind: k, spec: lins[z.draw(rnd)].spec(k)}
		}
		queries[a] = qs
	}

	env := newEnv(c.seed)
	f := newFabric(env, lineageShards, lineageWorkers, txns)
	reqs, err := core.ItemsForBundles(f.dep.Store, corpus)
	if err != nil {
		return nil, err
	}
	if err := f.dep.DB.BulkPut(reqs, 40, false); err != nil {
		return nil, fmt.Errorf("preloading the corpus: %w", err)
	}
	eng := query.New(f.dep, core.BackendSDB)
	eng.SetCache(query.NewCache(0))
	if err := eng.Subscribe(); err != nil {
		return nil, err
	}
	return &lineageSetup{
		f: f, eng: eng, queries: queries, dues: dues,
		trickle: indices(0, n), burst: indices(n, n+lineageBurst),
		items: len(corpus) + len(txns),
	}, nil
}

func runLineage(c config) (*result, error) {
	s, setupS, err := timedSetup(func() (*lineageSetup, error) { return buildLineage(c) })
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
	cs0 := s.eng.Cache().Stats()
	f.goLive(c.scale, daemonPoll)
	defer f.stopDaemon()
	var samples <-chan *sampler
	stopSampling := make(chan struct{})
	if tr != nil {
		samples = runSampler(f, time.Second, stopSampling)
	}

	root := tr.begin("bench", "lineage.window", 0, "")
	t0 := env.Now()

	// Read-your-writes probes: after a trickle commit's notice, a query
	// through the subscribed cache must see it.
	var probes sync.WaitGroup
	var probeMu sync.Mutex
	probeBad, probeRuns := 0, 0
	for n, i := range s.trickle {
		if n%lineageCheckEvery != 0 {
			continue
		}
		probes.Add(1)
		go func(i int) {
			defer probes.Done()
			<-f.trk.durableCh(i)
			f.dep.Commits.Seq() // waits until the notice reached every subscriber
			ref := f.txns[i].obj.Ref
			got, err := s.eng.CollectRefs(query.Spec{Roots: query.Roots{UUIDs: []uuid.UUID{ref.UUID}}, Direction: query.Versions})
			probeMu.Lock()
			defer probeMu.Unlock()
			probeRuns++
			if err != nil || !containsRef(got, ref) {
				probeBad++
			}
		}(i)
	}

	gen := make(chan struct{})
	go func() {
		defer close(gen)
		f.launch(s.trickle, t0, s.dues, root.ID)
	}()

	// The analysts: closed loop, each issuing its fixed query list.
	lat := make([][]time.Duration, len(queryKinds))
	var all []time.Duration
	var mu sync.Mutex
	qFailed, results := 0, 0
	cpu0 := cpuTime()
	var analysts sync.WaitGroup
	for a, qs := range s.queries {
		analysts.Add(1)
		go func(a int, qs []lineageQuery) {
			defer analysts.Done()
			for n, q := range qs {
				sp := tr.begin("query", "Engine.Run/"+queryKinds[q.kind], root.ID, fmt.Sprintf("a%d/%d", a, n))
				q0 := env.Now()
				got, err := s.eng.CollectRefs(q.spec)
				dq := env.Now() - q0
				tr.end(sp)
				mu.Lock()
				if err != nil {
					qFailed++
				} else {
					lat[q.kind] = append(lat[q.kind], dq)
					all = append(all, dq)
					results += len(got)
				}
				mu.Unlock()
			}
		}(a, qs)
	}
	analysts.Wait()
	appElapsed := env.Now() - t0
	queryCPU := cpuTime() - cpu0
	<-gen
	drainErr := f.waitDurable(s.trickle, 10*w)
	burstAt := env.Now() - t0 // after the trickle is durable and the analysts are done
	f.launch(s.burst, t0, burstDues(len(s.burst), burstAt), root.ID)
	peak, burstErr := f.drainBacklog(s.burst, t0+burstAt, 10*w)
	if drainErr == nil {
		drainErr = burstErr
	}
	f.inflight.Wait()
	if err := f.waitDurable(indices(0, len(f.txns)), 10*w); drainErr == nil {
		drainErr = err
	}
	probes.Wait()
	tr.end(root)
	var sampled *sampler
	if tr != nil {
		close(stopSampling)
		sampled = <-samples
	}
	d.u1, d.r1 = env.Meter().Usage(), resTotals(f.dep)
	cs1 := s.eng.Cache().Stats()
	h.finish(r)

	if err := f.freeze(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("settle: %v", err))
	}
	if drainErr != nil {
		r.problems = append(r.problems, drainErr.Error())
	}
	if probeBad > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d queries after a commit's notice missed the commit", probeBad, probeRuns))
	}
	if qFailed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d analyst queries failed", qFailed))
	}
	r.problems = append(r.problems, checkCommitted(f, indices(0, len(f.txns)))...)
	r.problems = append(r.problems, checkClean(f)...)
	if got := f.dep.DB.ItemCount(); got != s.items {
		r.problems = append(r.problems, fmt.Sprintf("%d provenance items stored, want %d", got, s.items))
	}
	r.problems = append(r.problems, checkCacheAgainstUncached(s)...)

	commit, ack, dwell := f.latencies(s.trickle)
	addLatencies(r, "commit", commit)
	addLatencies(r, "ack", ack)
	addLatencies(r, "query", all)
	r.e2e["peak_tps"] = peak
	r.e2e["app_elapsed_s"] = appElapsed.Seconds()
	ops := len(f.txns) + len(all) + probeRuns
	r.attempted = ops + qFailed
	r.failed = int(f.failed.Load()) + qFailed + probeBad
	r.e2e["usd_per_1k_ops"] = 1000 * d.cost() / float64(ops)
	r.e2e["bytes_in_per_user_byte"] = ratio(float64(d.u1.BytesIn-d.u0.BytesIn), float64(userBytes(f.txns)))

	fabricLayers(r.layer, f, d, sampled, len(f.txns), ops, len(all)+probeRuns, results, dwell)
	r.layer["samples.commit"], r.layer["samples.ack"] = float64(len(commit)), float64(len(ack))
	for k, name := range queryKinds {
		r.layer["query.p50_ms."+name] = percentile(lat[k], 50).Value
	}
	hits, misses := cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses
	r.layer["query.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	r.layer["query.cache_evictions"] = float64(cs1.Evictions - cs0.Evictions)
	r.layer["query.invalidations_per_commit"] = ratio(float64(d.u1.CacheInvalidations-d.u0.CacheInvalidations), float64(len(f.txns)))
	r.layer["query.cpu_us_per_query"] = ratio(float64(queryCPU.Microseconds()), float64(len(all)))
	r.notes = append(r.notes, fmt.Sprintf("  analysts: %d queries, cache hit ratio %.3f; %d read-your-writes probes",
		len(all), r.layer["query.cache_hit_ratio"], probeRuns))
	deciles := "  query deciles (ms):"
	for q := 10.0; q < 100; q += 10 {
		deciles += fmt.Sprintf(" %.1f", percentile(all, q).Value)
	}
	r.notes = append(r.notes, deciles)
	finishTrace(r, tr)
	return r, nil
}

// burstDues makes n arrivals all due at offset at.
func burstDues(n int, at time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = at
	}
	return out
}

// checkCacheAgainstUncached re-runs a sample of the analysts' queries on the
// settled fabric through the warm subscribed cache and through an uncached
// engine; the result streams must be identical.
func checkCacheAgainstUncached(s *lineageSetup) []string {
	plain := query.New(s.f.dep, core.BackendSDB)
	bad, n := 0, 0
	for _, qs := range s.queries {
		for i := 0; i < len(qs); i += lineageSampleEvery {
			n++
			a, errA := s.eng.CollectRefs(qs[i].spec)
			b, errB := plain.CollectRefs(qs[i].spec)
			if errA != nil || errB != nil || fmt.Sprint(a) != fmt.Sprint(b) {
				bad++
			}
		}
	}
	if bad > 0 {
		return []string{fmt.Sprintf("%d of %d sampled queries differ between the cached and an uncached engine", bad, n)}
	}
	return nil
}
