package sdb

import (
	"fmt"
	"strings"
	"sync"

	"passcloud/internal/par"
	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

// DomainSet is a K-way sharded set of domains acting as one logical domain.
// Items are partitioned by the uuid prefix of their name (everything before
// the first '_', so every version of an object shares a shard), each shard
// being a distinct service domain with its own write-rate ceiling (its own
// gate lane). A K-way set therefore absorbs K times the BatchPutAttributes
// rate of a single domain — the paper's ~7 batch-calls-per-second write gate
// is a per-domain limit and the hard floor of the single-domain commit path.
//
// Placement is governed by an epoch-versioned sim.Directory (via the shared
// sim.EpochSet lifecycle) rather than a fixed modulo, so the set can reshard
// live: during a migration every write lands on the union of the item's
// active- and target-epoch homes (the double-write window) and every read
// consults the same union, merging with the usual canonical name-order merge
// — duplicates from the window collapse because provenance items are
// immutable (a put of an existing name rewrites identical content, the same
// invariant the read cache relies on). Reads register against the epoch
// barrier, so the resharder's GC waits for queries that captured their
// routing view before the window opened instead of deleting data out from
// under them.
//
// Discovery is by convention: shard i of logical domain "prov" is the
// service domain "prov-i" (a set created at K == 1 keeps the bare name for
// shard 0 forever, so the seed topology is byte-identical and the endpoint
// identity survives growth). Reads route the same way writes do:
//
//   - single-key lookups (GetAttributes, a uuid-prefix SELECT) go to the
//     key's home shard(s) only;
//   - multi-shard SELECTs scatter to every live shard in parallel and merge
//     the per-shard pages — each shard streams its items in ascending name
//     order, so a k-way merge by name reproduces exactly the canonical
//     order a single domain would return. Query results are therefore
//     byte-identical across shard counts and across migration states.
//
// Queries name the logical domain; the set rewrites them to the shard's
// service domain before dispatch.
type DomainSet struct {
	env  *sim.Env
	base string
	ep   *sim.EpochSet

	// Guarded by ep's lock (mutated via ep.Locked / the grow callback).
	shards    []*Domain // index == shard id; may exceed the live count mid-shrink
	bareZero  bool      // shard 0 kept the bare base name (created at K == 1)
	forceScan bool      // sticky ablation flag, applied to grown shards too
}

// NewSet creates a K-way domain set. k < 1 is clamped to 1; k == 1 yields a
// single domain named base (the seed topology).
func NewSet(env *sim.Env, base string, k int) *DomainSet {
	if k < 1 {
		k = 1
	}
	s := &DomainSet{env: env, base: base, bareZero: k == 1}
	s.ep = sim.NewEpochSet(k, s.growLocked)
	s.ep.OnShrink(s.trimLocked)
	return s
}

// shardName names shard i's service domain.
func (s *DomainSet) shardName(i int) string {
	if i == 0 && s.bareZero {
		return s.base
	}
	return fmt.Sprintf("%s-%d", s.base, i)
}

// growLocked ensures shard slots [0, k) exist (called under the epoch-set
// lock). New domains inherit the sticky ablation flags.
func (s *DomainSet) growLocked(k int) {
	for i := len(s.shards); i < k; i++ {
		d := NewLane(s.env, s.shardName(i), i)
		if s.forceScan {
			d.SetForceScan(true)
		}
		s.shards = append(s.shards, d)
	}
}

// trimLocked releases the emptied domain slots beyond k after a shrink's GC
// (called under the epoch-set lock). The slice is copied, not truncated in
// place: DomainViews captured before the shrink alias the old backing array
// (viewFrom slices it), and a later grow must not append over their tails.
func (s *DomainSet) trimLocked(k int) {
	s.shards = append([]*Domain(nil), s.shards[:k]...)
}

// Slots reports how many shard slots are materialized, live or not —
// observability for the bounded-retention invariant (retired slots must be
// released, not accumulated, across repeated reshard cycles).
func (s *DomainSet) Slots() int {
	n := 0
	s.ep.Locked(func() { n = len(s.shards) })
	return n
}

// Env returns the environment the set charges against.
func (s *DomainSet) Env() *sim.Env { return s.env }

// Base returns the logical domain name queries address.
func (s *DomainSet) Base() string { return s.base }

// Directory returns the placement directory (epoch inspection, provctl).
func (s *DomainSet) Directory() *sim.Directory { return s.ep.Directory() }

// Shards reports the number of live domain shards.
func (s *DomainSet) Shards() int { return s.ep.Live() }

// Shard returns shard i, or nil if i is outside the live set (a daemon may
// hold a subscription computed just before a shrink decommissioned it).
func (s *DomainSet) Shard(i int) *Domain {
	var d *Domain
	s.ep.View(func(ev sim.EpochView) {
		if i >= 0 && i < ev.Live {
			d = s.shards[i]
		}
	})
	return d
}

// RouteKey extracts the routing key from an item name: the uuid prefix of a
// uuid_version name, or the whole name. Routing on the uuid keeps every
// version of an object in one shard, so per-object reads never scatter.
func RouteKey(item string) string {
	if i := strings.IndexByte(item, '_'); i >= 0 {
		return item[:i]
	}
	return item
}

// ShardForItem routes an item name to its active-epoch home shard.
func (s *DomainSet) ShardForItem(item string) int { return s.Directory().Route(RouteKey(item)) }

// ShardForKey routes a raw routing key (an object uuid) to its active-epoch
// home shard.
func (s *DomainSet) ShardForKey(key string) int { return s.Directory().Route(key) }

// HomesForItem returns every shard that may hold the item under the current
// routing state: the active home first, plus the target-epoch home during a
// migration's double-write window. Commit notices carry it so subscribers
// can tell where an invalidated item lives mid-reshard.
func (s *DomainSet) HomesForItem(item string) []int {
	return s.View().homesForItem(item)
}

// SetForceScan toggles the index-disabling ablation on every shard (present
// and future — the flag is sticky across growth).
func (s *DomainSet) SetForceScan(v bool) {
	var shards []*Domain
	s.ep.Locked(func() {
		s.forceScan = v
		shards = append(shards, s.shards...)
	})
	for _, d := range shards {
		d.SetForceScan(v)
	}
}

// ---------------------------------------------------------------------------
// Migration control. Only the resharder calls these; everything else sees a
// coherent routing view per operation.

// BeginMigration opens (or resumes) an epoch transition to k shards,
// creating the grown service domains. done reports that the set is already
// at k with no migration open.
func (s *DomainSet) BeginMigration(k int) (target sim.DirEpoch, resumed, done bool) {
	return s.ep.BeginMigration(k)
}

// Cutover promotes the target epoch to active. Decommissioned shards (a
// shrink) stay live until ShrinkTo so readers can still drain them for GC.
func (s *DomainSet) Cutover() { s.ep.Cutover() }

// ShrinkTo retires shard slots beyond k after a shrink migration's GC.
func (s *DomainSet) ShrinkTo(k int) { s.ep.ShrinkTo(k) }

// DrainPriorWrites blocks until every write that captured a routing view
// older than the current one has been applied. The resharder calls it after
// BeginMigration: once it returns, anything not double-written is already
// on its active-epoch shard, so one consistent copy scan sees everything.
func (s *DomainSet) DrainPriorWrites() { s.ep.DrainPriorWrites() }

// DrainPriorReads blocks until every read that captured a routing view
// older than the current one has finished. The resharder's GC calls it
// before deleting drained ranges: a query that snapshotted a
// pre-migration, single-home view still resolves against the old homes
// until its iteration ends.
func (s *DomainSet) DrainPriorReads() { s.ep.DrainPriorReads() }

// beginWrite captures the routing view a write will use and registers the
// write against that view's generation; the returned release must be called
// once the write is applied.
func (s *DomainSet) beginWrite() (*DomainView, func()) {
	var v *DomainView
	release := s.ep.BeginWrite(func(ev sim.EpochView) { v = s.viewFrom(ev) })
	return v, release
}

// ---------------------------------------------------------------------------
// Views. A DomainView is one coherent snapshot of the routing state — epoch
// pair plus shard list — so a multi-step operation (a BFS traversal, a put
// fan-out) cannot straddle a cutover.

// DomainView is an immutable routing snapshot of a DomainSet. All reads on
// a view route against the epochs captured at creation.
type DomainView struct {
	set    *DomainSet
	shards []*Domain
	active sim.DirEpoch
	target *sim.DirEpoch
}

// viewFrom materializes a DomainView for an epoch snapshot (runs under the
// epoch-set lock, where the shard slice and live count are consistent).
func (s *DomainSet) viewFrom(ev sim.EpochView) *DomainView {
	return &DomainView{set: s, shards: s.shards[:ev.Live], active: ev.Active, target: ev.Target}
}

// View captures the current routing state without barrier registration —
// for metrics and display only. Multi-step reads that GC must not race use
// AcquireView.
func (s *DomainSet) View() *DomainView {
	var v *DomainView
	s.ep.View(func(ev sim.EpochView) { v = s.viewFrom(ev) })
	return v
}

// AcquireView captures the current routing state and registers the read
// against the epoch barrier; the release must be called when the read
// finishes (the resharder's GC waits for it). Never run a reshard
// synchronously from inside the acquire window — it would wait on itself.
func (s *DomainSet) AcquireView() (*DomainView, func()) {
	var v *DomainView
	release := s.ep.BeginRead(func(ev sim.EpochView) { v = s.viewFrom(ev) })
	return v, release
}

// Base returns the logical domain name queries address.
func (v *DomainView) Base() string { return v.set.base }

// Shards reports the number of live shards in this view.
func (v *DomainView) Shards() int { return len(v.shards) }

// Migrating reports whether the view straddles a double-write window.
func (v *DomainView) Migrating() bool { return v.target != nil }

// Epoch returns the active directory epoch id this view routes by. Cached
// observations derived through a view are tagged with it, so a cache can tell
// when a reshard cutover has invalidated the placement they were read under.
func (v *DomainView) Epoch() int { return v.active.ID }

// homesForKey returns every shard that may hold the key, active home first
// (the shared double-write-set rule, evaluated against this view's epochs).
func (v *DomainView) homesForKey(key string) []int {
	return sim.HomesFor(v.active, v.target, key)
}

// homesForItem routes an item name through homesForKey.
func (v *DomainView) homesForItem(item string) []int {
	return v.homesForKey(RouteKey(item))
}

// rebase validates that a query addresses the logical domain and returns a
// copy addressed to one shard's service domain.
func (v *DomainView) rebase(q Query, shard int) (Query, error) {
	if q.Domain != v.set.base {
		return q, fmt.Errorf("sdb: unknown domain %q in select", q.Domain)
	}
	q.Domain = v.shards[shard].Name()
	return q, nil
}

// GetAttributes reads one item from its home shard(s): the active home
// first, falling back to the target home during a migration (a fresh item
// double-written mid-copy may be observable there first).
func (v *DomainView) GetAttributes(item string) (Item, error) {
	var lastErr error
	for _, h := range v.homesForItem(item) {
		it, err := v.shards[h].GetAttributes(item)
		if err == nil {
			return it, nil
		}
		lastErr = err
	}
	return Item{}, lastErr
}

// SelectAllRouted drains a query against the home shard(s) of key only —
// the plan for single-object lookups (a uuid-prefix SELECT touches exactly
// the key's homes by construction, so scattering would waste requests).
// During a migration both epoch homes are drained and merged; the window's
// duplicates collapse in the merge.
func (v *DomainView) SelectAllRouted(key string, q Query) (items []Item, requests int, bytes int, err error) {
	homes := v.homesForKey(key)
	if len(homes) == 1 {
		sq, err := v.rebase(q, homes[0])
		if err != nil {
			return nil, 0, 0, err
		}
		return v.shards[homes[0]].SelectAllQuery(sq)
	}
	lists := make([][]Item, 0, len(homes))
	for _, h := range homes {
		sq, err := v.rebase(q, h)
		if err != nil {
			return nil, 0, 0, err
		}
		its, reqs, b, err := v.shards[h].SelectAllQuery(sq)
		if err != nil {
			return nil, 0, 0, err
		}
		requests += reqs
		bytes += b
		lists = append(lists, its)
	}
	return mergeByName(lists), requests, bytes, nil
}

// SelectAllQuery drains a query against every live shard in parallel and
// merges the per-shard results by item name, reproducing the canonical
// single-domain order. Request and byte counts are summed across shards.
func (v *DomainView) SelectAllQuery(q Query) (items []Item, requests int, bytes int, err error) {
	if len(v.shards) == 1 {
		sq, err := v.rebase(q, 0)
		if err != nil {
			return nil, 0, 0, err
		}
		return v.shards[0].SelectAllQuery(sq)
	}
	type result struct {
		items []Item
		reqs  int
		bytes int
		err   error
	}
	results := make([]result, len(v.shards))
	// The env's retry layer also hedges straggler shards (nil: no hedging).
	res, _ := v.set.env.Retrier().(*resilient.Client)
	var wg sync.WaitGroup
	for i := range v.shards {
		sq, err := v.rebase(q, i)
		if err != nil {
			return nil, 0, 0, err
		}
		i, sq := i, sq
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each per-shard drain is hedged: if one shard straggles (a
			// fault-backed-off page, a slow replica) past the hedge delay, a
			// duplicate drain races it and the first result wins. Drains are
			// idempotent reads, so the loser is discarded harmlessly.
			r, err := resilient.Hedged(res, v.shards[i].Name(), func() (result, error) {
				var r result
				r.items, r.reqs, r.bytes, r.err = v.shards[i].SelectAllQuery(sq)
				return r, r.err
			})
			r.err = err
			results[i] = r
		}()
	}
	wg.Wait()
	lists := make([][]Item, 0, len(results))
	for i := range results {
		if results[i].err != nil {
			return nil, 0, 0, results[i].err
		}
		requests += results[i].reqs
		bytes += results[i].bytes
		lists = append(lists, results[i].items)
	}
	return mergeByName(lists), requests, bytes, nil
}

// SelectAll drains every page of a SELECT expression across all live
// shards, merged into canonical name order. Expressions are parsed through
// shard 0's parsed-query cache (K == 1 delegates outright, so the shard
// both parses and validates the domain name exactly as the seed did).
func (v *DomainView) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	if len(v.shards) == 1 {
		return v.shards[0].SelectAll(expr)
	}
	q, err := v.shards[0].cachedParse(expr)
	if err != nil {
		return nil, 0, 0, err
	}
	return v.SelectAllQuery(*q)
}

// Select runs one page of a SELECT expression. With one shard this is the
// domain's native paged SELECT. With K > 1 the shards are drained in shard
// order — the continuation token carries the shard index — so pages arrive
// shard-grouped rather than globally name-ordered; callers needing the
// canonical order (or migration-window dedup) use SelectAll/SelectAllQuery.
func (v *DomainView) Select(expr, nextToken string) (SelectPage, error) {
	if len(v.shards) == 1 {
		return v.shards[0].Select(expr, nextToken)
	}
	// Parse through shard 0's cache: a paged drain re-enters once per page
	// with the same expression.
	cached, err := v.shards[0].cachedParse(expr)
	if err != nil {
		return SelectPage{}, err
	}
	q := *cached
	shard, inner := 0, ""
	if nextToken != "" {
		if _, err := fmt.Sscanf(nextToken, "s%d|", &shard); err != nil || shard < 0 || shard >= len(v.shards) {
			return SelectPage{}, fmt.Errorf("sdb: bad continuation token %q", nextToken)
		}
		inner = nextToken[strings.IndexByte(nextToken, '|')+1:]
	}
	sq, err := v.rebase(q, shard)
	if err != nil {
		return SelectPage{}, err
	}
	page, err := v.shards[shard].SelectQuery(sq, inner)
	if err != nil {
		return SelectPage{}, err
	}
	switch {
	case page.NextToken != "":
		page.NextToken = fmt.Sprintf("s%d|%s", shard, page.NextToken)
	case shard+1 < len(v.shards):
		page.NextToken = fmt.Sprintf("s%d|", shard+1)
	}
	return page, nil
}

// ---------------------------------------------------------------------------
// DomainSet operations: each captures a fresh view (writes register against
// the write barrier, reads against the read barrier).

// PutAttributes writes one item to every home the double-write window
// requires (exactly one outside a migration).
func (s *DomainSet) PutAttributes(req PutRequest) error {
	v, done := s.beginWrite()
	defer done()
	for _, h := range v.homesForItem(req.Item) {
		if err := v.shards[h].PutAttributes(req); err != nil {
			return err
		}
	}
	return nil
}

// BatchPutAttributes writes up to 25 items, splitting the batch by home
// shard: each shard receives one call carrying its items. With K == 1 this
// is exactly one service call; with K > 1 a mixed batch becomes up to K
// smaller calls (the commit path avoids that by filling per-shard batches
// before calling — see BulkPut). During a migration each item lands on
// every home in its double-write set.
func (s *DomainSet) BatchPutAttributes(reqs []PutRequest) error {
	if len(reqs) > MaxBatchItems {
		return ErrBatchTooLarge
	}
	v, done := s.beginWrite()
	defer done()
	if len(v.shards) == 1 {
		return v.shards[0].BatchPutAttributes(reqs)
	}
	perShard := make(map[int][]PutRequest)
	for _, r := range reqs {
		for _, h := range v.homesForItem(r.Item) {
			perShard[h] = append(perShard[h], r)
		}
	}
	for sh, rs := range perShard {
		if err := v.shards[sh].BatchPutAttributes(rs); err != nil {
			return err
		}
	}
	return nil
}

// BulkPut writes an arbitrary number of requests with BatchPutAttributes in
// groups of at most 25 (the service limit), each batch addressed to one
// shard so every call stays a single service request. Unordered mode (the
// measured paths) partitions the requests by home shard first — every home
// in the double-write set during a migration — filling each shard's batches
// to the brim, and runs the calls on up to conns concurrent connections.
// Ordered mode preserves the global ancestors-first order: it walks the
// requests in sequence and cuts a batch whenever the home set changes (or
// the batch fills), writing batches strictly one after another, each batch
// to every home it routes to.
func (s *DomainSet) BulkPut(reqs []PutRequest, conns int, ordered bool) error {
	v, done := s.beginWrite()
	defer done()
	if ordered {
		sameHomes := func(a, b []int) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		var tasks []func() error
		for start := 0; start < len(reqs); {
			homes := v.homesForItem(reqs[start].Item)
			end := start + 1
			for end < len(reqs) && end-start < MaxBatchItems && sameHomes(v.homesForItem(reqs[end].Item), homes) {
				end++
			}
			batch := reqs[start:end]
			for _, h := range homes {
				dom := v.shards[h]
				tasks = append(tasks, func() error { return dom.BatchPutAttributes(batch) })
			}
			start = end
		}
		return par.Sequential(tasks)
	}
	perShard := make([][]PutRequest, len(v.shards))
	if len(v.shards) == 1 {
		perShard[0] = reqs
	} else {
		for _, r := range reqs {
			for _, h := range v.homesForItem(r.Item) {
				perShard[h] = append(perShard[h], r)
			}
		}
	}
	var tasks []func() error
	for sh, rs := range perShard {
		dom := v.shards[sh]
		for start := 0; start < len(rs); start += MaxBatchItems {
			end := start + MaxBatchItems
			if end > len(rs) {
				end = len(rs)
			}
			batch := rs[start:end]
			tasks = append(tasks, func() error { return dom.BatchPutAttributes(batch) })
		}
	}
	return par.Run(conns, tasks)
}

// GetAttributes reads one item from its home shard(s).
func (s *DomainSet) GetAttributes(item string) (Item, error) {
	v, done := s.AcquireView()
	defer done()
	return v.GetAttributes(item)
}

// DeleteAttributes removes one item from every home it may live on.
func (s *DomainSet) DeleteAttributes(item string) error {
	v, done := s.beginWrite()
	defer done()
	for _, h := range v.homesForItem(item) {
		if err := v.shards[h].DeleteAttributes(item); err != nil {
			return err
		}
	}
	return nil
}

// ItemCount sums the live items across all live shards. During the window
// between a cutover and its GC, moved items still exist on their old shard
// and are counted twice; use query digests, not counts, mid-migration.
func (s *DomainSet) ItemCount() int {
	v := s.View()
	n := 0
	for _, d := range v.shards {
		n += d.ItemCount()
	}
	return n
}

// SelectAllRouted drains a query against the home shard(s) of key only.
func (s *DomainSet) SelectAllRouted(key string, q Query) (items []Item, requests int, bytes int, err error) {
	v, done := s.AcquireView()
	defer done()
	return v.SelectAllRouted(key, q)
}

// SelectAllQuery drains a query against every live shard in parallel,
// merged into canonical name order.
func (s *DomainSet) SelectAllQuery(q Query) (items []Item, requests int, bytes int, err error) {
	v, done := s.AcquireView()
	defer done()
	return v.SelectAllQuery(q)
}

// SelectAll drains every page of a SELECT expression across all live
// shards, merged into canonical name order.
func (s *DomainSet) SelectAll(expr string) (items []Item, requests int, bytes int, err error) {
	v, done := s.AcquireView()
	defer done()
	return v.SelectAll(expr)
}

// Select runs one page of a SELECT expression (see DomainView.Select).
func (s *DomainSet) Select(expr, nextToken string) (SelectPage, error) {
	v, done := s.AcquireView()
	defer done()
	return v.Select(expr, nextToken)
}

// mergeByName k-way merges per-shard item lists, each already in ascending
// name order, into one ascending list. Shards partition the name space in a
// stable epoch, so normally no name appears twice; during a migration's
// double-write window (and between cutover and GC) the same immutable item
// can surface on both of its epoch homes, so equal names collapse to their
// first occurrence — which, by immutability, is byte-identical to the
// duplicates dropped.
func mergeByName(lists [][]Item) []Item {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]Item, 0, total)
	pos := make([]int, len(lists))
	remaining := total
	for remaining > 0 {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best < 0 || l[pos[i]].Name < lists[best][pos[best]].Name {
				best = i
			}
		}
		it := lists[best][pos[best]]
		pos[best]++
		remaining--
		if n := len(out); n > 0 && out[n-1].Name == it.Name {
			continue // migration-window duplicate of an immutable item
		}
		out = append(out, it)
	}
	return out
}
