package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/par"
	"passcloud/internal/sim"
)

// Live dynamic resharding of the cloud fabric.
//
// Topology used to be fixed at deployment creation; Reshard grows (or
// shrinks) a running fabric without stopping ingest. The protocol rides the
// epoch-versioned placement directories of the shard sets:
//
//  1. Prepare: open an epoch transition on both directories (creating the
//     grown service domains/queues) and persist the fabric control object.
//     From this moment every provenance item write lands on the union of
//     its active- and target-epoch homes (the double-write window) and
//     every read consults the same union, so nothing the copier has not
//     reached yet can go unobserved.
//  2. Barrier: wait for writes that routed under the previous epoch view to
//     finish applying. Anything not double-written is now durably on its
//     active-epoch shard.
//  3. Copy: stream items out of each active-epoch shard with strongly
//     consistent paged SELECTs and BatchPut the ones whose target-epoch
//     home differs, in full 25-item batches per destination that land
//     while the scan moves on. Then wait until every copied version is
//     visible on its new home. The copy is idempotent — items are
//     immutable, so re-copying after a crash rewrites identical bytes.
//  4. Cutover: atomically promote the target epoch on both directories and
//     persist the control object in the "gc" state. Reads now route by the
//     new epoch alone; the stale copies left on the old shards are garbage.
//  5. GC: delete items from shards that no longer own them, migrate any
//     messages stranded on decommissioned WAL queues to their new homes,
//     retire drained queue/domain slots (a shrink), and persist the
//     control object as "stable".
//
// Every phase is idempotent and the control object is written ahead of the
// state it describes becoming load-bearing, so a resharder killed at any
// phase boundary recovers by re-running Reshard toward the same target (see
// ResumeReshard); readers observe byte-identical query results throughout.

// FabricControlKey is the store key of the fabric control object — the
// persisted topology/epoch record a restarted resharder (or a fresh daemon
// host) consults to learn which epoch the fabric is in.
const FabricControlKey = "ctl/fabric"

// Control-object states.
const (
	ControlStable    = "stable"    // one epoch, no migration in flight
	ControlMigrating = "migrating" // double-write window open, copy running
	ControlGC        = "gc"        // cutover done, old-shard garbage pending
)

// FabricControl is the persisted fabric state.
type FabricControl struct {
	State    string          `json:"state"`
	Topology Topology        `json:"topology"`         // active topology
	Target   *Topology       `json:"target,omitempty"` // set while migrating
	WALDir   sim.DirSnapshot `json:"wal_dir"`
	DBDir    sim.DirSnapshot `json:"db_dir"`
}

// ReshardCrashPoint names a phase boundary where the migration test harness
// can kill the resharder.
type ReshardCrashPoint int

// Resharder crash points, in phase order.
const (
	ReshardCrashNone       ReshardCrashPoint = iota
	ReshardCrashPreCopy                      // window open + control persisted, nothing copied
	ReshardCrashMidCopy                      // first batch copied, the rest not
	ReshardCrashPreCutover                   // copy complete, both epochs still live
	ReshardCrashPreGC                        // cutover persisted, old-shard garbage intact
)

// String names the crash point for test output.
func (p ReshardCrashPoint) String() string {
	switch p {
	case ReshardCrashPreCopy:
		return "pre-copy"
	case ReshardCrashMidCopy:
		return "mid-copy"
	case ReshardCrashPreCutover:
		return "pre-cutover"
	case ReshardCrashPreGC:
		return "post-cutover-pre-gc"
	}
	return "none"
}

// SetReshardDropAfter arms the one-shot migration crash hook: the next
// Reshard dies (returns ErrSimulatedCrash) at the given phase boundary,
// leaving the fabric exactly as a killed resharder process would.
func (d *Deployment) SetReshardDropAfter(p ReshardCrashPoint) {
	d.reshardMu.Lock()
	d.reshardCrash = p
	d.reshardMu.Unlock()
}

// takeReshardCrash consumes the hook if it is armed for point p.
func (d *Deployment) takeReshardCrash(p ReshardCrashPoint) bool {
	d.reshardMu.Lock()
	defer d.reshardMu.Unlock()
	if d.reshardCrash == p {
		d.reshardCrash = ReshardCrashNone
		return true
	}
	return false
}

// GCPending reports whether a cutover's old-shard garbage still awaits
// collection (a resharder died between cutover and GC).
func (d *Deployment) GCPending() bool {
	d.reshardMu.Lock()
	defer d.reshardMu.Unlock()
	return d.gcPending
}

func (d *Deployment) setGCPending(v bool) {
	d.reshardMu.Lock()
	d.gcPending = v
	d.reshardMu.Unlock()
}

// persistControl writes the fabric control object reflecting the current
// directory state.
func (d *Deployment) persistControl(state string, target *Topology) error {
	c := FabricControl{
		State:    state,
		Topology: d.Topo,
		Target:   target,
		WALDir:   d.WAL.Directory().Snapshot(),
		DBDir:    d.DB.Directory().Snapshot(),
	}
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("core: encoding fabric control: %w", err)
	}
	return d.Store.Put(FabricControlKey, b, nil)
}

// ReadControl fetches the persisted fabric control object; ok is false when
// no reshard ever ran on this deployment.
func (d *Deployment) ReadControl() (FabricControl, bool, error) {
	o, err := d.Store.Get(FabricControlKey)
	if err != nil {
		return FabricControl{}, false, nil // never persisted (or not yet visible)
	}
	var c FabricControl
	if err := json.Unmarshal(o.Data, &c); err != nil {
		return FabricControl{}, false, fmt.Errorf("core: decoding fabric control: %w", err)
	}
	return c, true, nil
}

// ReshardStats reports what one Reshard (or resume) did.
type ReshardStats struct {
	From, To    Topology
	Epoch       int // active DB epoch id after completion
	CopiedItems int // provenance items durably streamed to their new homes
	GCItems     int // stale copies deleted from drained ranges
	WALMigrated int // messages moved off decommissioned queues (shrink)
}

// reshardCopyPage bounds one copy- or GC-scan SELECT page: small enough to
// keep a scanner's memory to one page, large enough to amortize the
// per-request latency.
const reshardCopyPage = 200

// reshardConns bounds the copier's and GC's concurrent batch calls per
// destination domain (SimpleDB's write gate is per domain), and the number
// of shards they scan at once.
const reshardConns = 16

// ErrReshardInFlight is returned when a second resharder races an open one.
var ErrReshardInFlight = errors.New("core: reshard already in flight")

// Reshard is the package-level form of Deployment.Reshard.
func Reshard(ctx context.Context, dep *Deployment, target Topology) (ReshardStats, error) {
	return dep.Reshard(ctx, target)
}

// ResumeReshard recovers a migration whose resharder died: it reads the
// persisted control object and rolls the fabric forward to the recorded
// target. resumed is false when there is nothing to recover.
func ResumeReshard(ctx context.Context, dep *Deployment) (ReshardStats, bool, error) {
	c, ok, err := dep.ReadControl()
	if err != nil {
		return ReshardStats{}, false, err
	}
	if !ok || c.State == ControlStable {
		// The control object was PUT moments before the crash, and an
		// eventually consistent read may still serve its absence or a
		// previous reshard's "stable" version. The open window itself is
		// authoritative: if either directory is mid-transition (or a
		// cutover's GC is pending), roll forward from that state instead of
		// abandoning a double-write window that would otherwise stay open
		// forever.
		target := dep.activeTopology()
		open := dep.GCPending()
		if t, migrating := dep.DB.Directory().Target(); migrating {
			target.DBShards, open = t.Shards, true
		}
		if t, migrating := dep.WAL.Directory().Target(); migrating {
			target.WALShards, open = t.Shards, true
		}
		if !open {
			return ReshardStats{}, false, nil
		}
		stats, err := dep.Reshard(ctx, target)
		return stats, true, err
	}
	target := c.Topology
	if c.State == ControlMigrating && c.Target != nil {
		target = *c.Target
	}
	if c.State == ControlGC {
		dep.setGCPending(true)
	}
	stats, err := dep.Reshard(ctx, target)
	return stats, true, err
}

// activeTopology derives the current topology from the directories (which
// are internally locked) — the race-free way to read the fabric size while
// a resharder may be running.
func (d *Deployment) activeTopology() Topology {
	return Topology{
		WALShards: d.WAL.Directory().Active().Shards,
		DBShards:  d.DB.Directory().Active().Shards,
	}
}

// Reshard grows or shrinks the live fabric to target without stopping
// ingest. It is safe to re-run toward the same target after a crash — every
// phase is idempotent — and returns ErrSimulatedCrash when the test
// harness's drop hook fires.
func (d *Deployment) Reshard(ctx context.Context, target Topology) (ReshardStats, error) {
	target = target.normalized()
	stats := ReshardStats{To: target}
	// One resharder at a time: concurrent runs are refused outright (no
	// blocking — the caller of a long migration should not be ambushed by
	// queueing behind another one), and a crashed migration can only be
	// resumed toward its own target, never redirected mid-flight. Topo is
	// only read or written under this lock while a resharder can exist, so
	// the stats snapshot below cannot tear against a racing cutover.
	if !d.reshardRunMu.TryLock() {
		return stats, ErrReshardInFlight
	}
	defer d.reshardRunMu.Unlock()
	stats.From = d.Topo
	if t, ok := d.DB.Directory().Target(); ok && t.Shards != target.DBShards {
		return stats, ErrReshardInFlight
	}
	if t, ok := d.WAL.Directory().Target(); ok && t.Shards != target.WALShards {
		return stats, ErrReshardInFlight
	}

	// Phase 1 — prepare: open the epoch transitions (idempotent: an open
	// migration to the same target resumes) and persist the control object
	// before the window becomes load-bearing. A grow splits the hottest
	// hash ranges: unless a controller already staged windowed load hints,
	// derive them from the meter's cumulative per-endpoint op counts.
	d.installSplitLoads(target)
	_, _, dbDone := d.DB.BeginMigration(target.DBShards)
	_, _, walDone := d.WAL.BeginMigration(target.WALShards)
	if dbDone && walDone {
		if !d.GCPending() {
			stats.Epoch = d.DB.Directory().Epoch()
			return stats, nil // already at target, nothing pending
		}
		// Crash landed between cutover and GC: only phase 5 remains.
		gcItems, walMoved, err := d.finishReshardGC(ctx, target)
		stats.GCItems, stats.WALMigrated = gcItems, walMoved
		stats.Epoch = d.DB.Directory().Epoch()
		return stats, err
	}
	if err := d.persistControl(ControlMigrating, &target); err != nil {
		return stats, err
	}
	if d.takeReshardCrash(ReshardCrashPreCopy) {
		return stats, fmt.Errorf("%w: resharder at %s", ErrSimulatedCrash, ReshardCrashPreCopy)
	}

	// Phase 2 — barrier: wait out writes that routed before the window
	// opened, so the copy scan below cannot miss a single-home write still
	// in flight toward its old shard.
	d.DB.DrainPriorWrites()
	d.WAL.DrainPriorSends()

	// Phase 3 — copy.
	copied, settledAt, err := d.reshardCopy(ctx)
	stats.CopiedItems = copied
	if err != nil {
		return stats, err
	}
	// Visibility barrier: freshly copied items are eventually consistent on
	// their new homes, and after cutover reads route there *alone*. Wait
	// until every copied version is visible — the destinations' SettledAt
	// snapshot the copy took — while the union-read window still covers
	// every item through its old home; otherwise a long-settled item could
	// transiently vanish right after cutover, which a static deployment
	// would never do. Under strict consistency the snapshot is already past.
	d.Env.Clock().SleepUntil(settledAt)
	if d.takeReshardCrash(ReshardCrashPreCutover) {
		return stats, fmt.Errorf("%w: resharder at %s", ErrSimulatedCrash, ReshardCrashPreCutover)
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}

	// Phase 4 — cutover: promote the target epoch on both directories,
	// publish the new topology, and persist the pending-GC state.
	d.DB.Cutover()
	d.WAL.Cutover()
	d.Topo = target
	d.setGCPending(true)
	if err := d.persistControl(ControlGC, nil); err != nil {
		return stats, err
	}
	if d.takeReshardCrash(ReshardCrashPreGC) {
		return stats, fmt.Errorf("%w: resharder at %s", ErrSimulatedCrash, ReshardCrashPreGC)
	}

	// Phase 5 — GC the drained ranges and retire decommissioned shards.
	gcItems, walMoved, err := d.finishReshardGC(ctx, target)
	stats.GCItems, stats.WALMigrated = gcItems, walMoved
	stats.Epoch = d.DB.Directory().Epoch()
	return stats, err
}

// installSplitLoads stages per-shard op counts as split-load hints on any
// axis about to grow, so BeginMigration splits the hottest range rather than
// the widest. A hint a controller staged first (windowed deltas, a better
// signal than lifetime totals) is left alone; axes that are shrinking,
// already migrating, or have seen no traffic get none — the widest-range
// fallback keeps the historical geometry.
func (d *Deployment) installSplitLoads(target Topology) {
	u := d.Env.Meter().Usage()
	stage := func(dir *sim.Directory, toK int, name func(int) string, k int) {
		if dir.Migrating() || dir.HasSplitLoad() || toK <= dir.Active().Shards {
			return
		}
		load := make(map[int]int64, k)
		total := int64(0)
		for i := 0; i < k; i++ {
			load[i] = u.OpsByEndpoint[name(i)]
			total += load[i]
		}
		if total > 0 {
			dir.SetSplitLoad(load)
		}
	}
	stage(d.DB.Directory(), target.DBShards, func(i int) string {
		if s := d.DB.Shard(i); s != nil {
			return s.Name()
		}
		return ""
	}, d.DB.Shards())
	stage(d.WAL.Directory(), target.WALShards, func(i int) string {
		if s := d.WAL.Shard(i); s != nil {
			return s.Name()
		}
		return ""
	}, d.WAL.Shards())
}

// reshardCopy streams every item whose target-epoch home differs from its
// active-epoch shard to that new home, in full batches. The scan uses
// strongly consistent SELECTs (an eventually consistent page could hide a
// just-committed item long enough to lose it at cutover). One pass
// suffices: the write barrier ran before it, and everything newer
// double-writes. The returned count tallies only durably written items —
// batches whose put failed (or never ran) do not count. settledAt is the
// snapshot, taken once every batch has returned, of the time by which all
// versions on the copy's destination domains are visible; double-writes
// landing after it cannot extend it.
func (d *Deployment) reshardCopy(ctx context.Context) (copied int, settledAt time.Duration, err error) {
	targetEpoch, ok := d.DB.Directory().Target()
	if !ok {
		return 0, 0, nil // DB axis not migrating (WAL-only reshard)
	}
	activeEpoch := d.DB.Directory().Active()
	sources := make(map[int]bool)
	for _, r := range activeEpoch.Ranges {
		sources[r.Shard] = true
	}
	var srcs []int
	for s := 0; s < d.DB.Shards(); s++ {
		if sources[s] {
			srcs = append(srcs, s)
		}
	}
	sink := newCopySink(d)
	// Source shards stream independently, so they scan in parallel — the
	// double-write window lasts max(shard scan), not their sum.
	err = par.ForEach(reshardConns, len(srcs), func(i int) error {
		return d.copyShard(ctx, srcs[i], targetEpoch, sink)
	})
	sink.wg.Wait()
	if err == nil {
		err = sink.failed()
	}
	for home := range sink.used {
		if sink.used[home].Load() {
			settledAt = max(settledAt, d.DB.Shard(home).SettledAt())
		}
	}
	return int(sink.copied.Load()), settledAt, err
}

// copySink drains a reshard copy's batches to their destination shards.
// SimpleDB gates writes per domain, so each destination has its own bound
// of reshardConns batches in flight; a scanner handing a batch to a
// saturated destination waits for a slot, which keeps the copy's memory to
// a page plus the in-flight batches.
type copySink struct {
	d      *Deployment
	slots  []chan struct{} // per-destination semaphores
	used   []atomic.Bool   // destinations that were handed a batch
	wg     sync.WaitGroup
	copied atomic.Int64

	mu  sync.Mutex
	err error // first batch failure (or the mid-copy crash)
}

func newCopySink(d *Deployment) *copySink {
	n := d.DB.Shards()
	c := &copySink{d: d, slots: make([]chan struct{}, n), used: make([]atomic.Bool, n)}
	for i := range c.slots {
		c.slots[i] = make(chan struct{}, reshardConns)
	}
	return c
}

func (c *copySink) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *copySink) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// put starts one BatchPut to shard home once the destination has a free
// slot, and returns without waiting for it. After any batch has failed it
// hands out nothing more and returns that failure.
func (c *copySink) put(home int, batch []sdb.PutRequest) error {
	c.slots[home] <- struct{}{}
	if err := c.failed(); err != nil {
		<-c.slots[home]
		return err
	}
	c.used[home].Store(true)
	c.wg.Add(1)
	go func() {
		defer func() {
			<-c.slots[home]
			c.wg.Done()
		}()
		if err := c.d.DB.Shard(home).BatchPutAttributes(batch); err != nil {
			c.fail(err)
			return
		}
		c.copied.Add(int64(len(batch)))
		c.d.Env.Meter().CountOp("reshard.copyBatch", 0)
		// One-shot (mutex-consumed) hook: exactly one batch, the first to
		// succeed, trips the mid-copy crash. Batches already in flight
		// still land, which is safe: the copy is idempotent.
		if c.d.takeReshardCrash(ReshardCrashMidCopy) {
			c.fail(fmt.Errorf("%w: resharder at %s", ErrSimulatedCrash, ReshardCrashMidCopy))
		}
	}()
	return nil
}

// copyShard streams one source shard's movers to their target-epoch homes:
// the scan routes each mover into its destination's pending batch and hands
// every full batch to the sink without waiting for it to land. Partial
// batches flush when the scan ends.
func (d *Deployment) copyShard(ctx context.Context, s int, targetEpoch sim.DirEpoch, sink *copySink) error {
	dom := d.DB.Shard(s)
	q := sdb.Query{Domain: dom.Name(), Consistent: true, Limit: reshardCopyPage}
	pending := make([][]sdb.PutRequest, len(sink.slots))
	for token := ""; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := dom.SelectQuery(q, token)
		if err != nil {
			return err
		}
		for _, it := range page.Items {
			home := targetEpoch.Route(sdb.RouteKey(it.Name))
			if home == s {
				continue
			}
			pending[home] = append(pending[home], sdb.PutRequest{
				Item: it.Name, Attrs: it.Attrs, Replace: true,
			})
			if len(pending[home]) == sdb.MaxBatchItems {
				if err := sink.put(home, pending[home]); err != nil {
					return err
				}
				pending[home] = nil
			}
		}
		if page.NextToken == "" {
			break
		}
		token = page.NextToken
	}
	for home, batch := range pending {
		if len(batch) > 0 {
			if err := sink.put(home, batch); err != nil {
				return err
			}
		}
	}
	return nil
}

// FinishPendingReshardGC runs the GC a dead resharder left pending, if any.
// The cleaner daemon calls it every pass; it defers to a live resharder (the
// run lock is held) rather than racing its GC phase.
func (d *Deployment) FinishPendingReshardGC(ctx context.Context) error {
	if !d.GCPending() {
		return nil
	}
	if !d.reshardRunMu.TryLock() {
		return nil // a resharder is active; it owns the GC
	}
	defer d.reshardRunMu.Unlock()
	if !d.GCPending() {
		return nil
	}
	_, _, err := d.finishReshardGC(ctx, d.Topo)
	return err
}

// finishReshardGC collects the garbage a cutover leaves behind: stale item
// copies on shards that no longer own them, and — after a shrink — messages
// stranded on decommissioned WAL queues, which are re-sent to their
// new-epoch homes before the queues are retired. Idempotent; the cleaner
// daemon re-runs it if the resharder died first.
func (d *Deployment) finishReshardGC(ctx context.Context, target Topology) (gcItems, walMoved int, err error) {
	if d.DB.Directory().Migrating() || d.WAL.Directory().Migrating() {
		return 0, 0, fmt.Errorf("core: reshard GC before cutover")
	}
	// Writers that captured the double-write view before cutover may still
	// be applying; wait them out so the GC scan below sees their old-home
	// copies and removes them instead of leaving post-scan garbage. Then
	// wait out readers holding pre-cutover views: a query that snapshotted
	// a pre-migration, single-home routing view still resolves against the
	// old homes, and deleting under it would truncate its results.
	d.DB.DrainPriorWrites()
	d.DB.DrainPriorReads()
	activeEpoch := d.DB.Directory().Active()
	// Shard GCs are independent; run them in parallel so the stale-copy
	// window (double-counted ItemCount, extra storage) closes in
	// max(shard GC) rather than their sum.
	var gcCount atomic.Int64
	shardErr := par.ForEach(reshardConns, d.DB.Shards(), func(s int) error {
		return d.gcShard(ctx, s, activeEpoch, &gcCount)
	})
	gcItems = int(gcCount.Load())
	if shardErr != nil {
		return gcItems, walMoved, shardErr
	}

	// Shrink: move stranded messages off decommissioned queues, then retire
	// the empty slots on both axes.
	d.WAL.DrainPriorSends()
	for s := target.WALShards; s < d.WAL.Shards(); s++ {
		q := d.WAL.Shard(s)
		if q == nil {
			continue
		}
		moved, err := d.migrateQueue(ctx, q)
		walMoved += moved
		if err != nil {
			return gcItems, walMoved, err
		}
	}
	d.WAL.ShrinkTo(target.WALShards)
	d.DB.ShrinkTo(target.DBShards)
	d.setGCPending(false)
	if err := d.persistControl(ControlStable, nil); err != nil {
		return gcItems, walMoved, err
	}
	return gcItems, walMoved, nil
}

// gcShard deletes the stale copies on one shard: a consistent name-only scan
// collects every item the active epoch routes elsewhere, then the names
// flush as full BatchDeleteAttributes calls. The scan never waits on a
// delete, and none can be missed behind it: once the cutover's write
// barrier has drained, writers route by the active epoch alone, so no new
// stale copy can appear on this shard. Only batches that succeeded count.
func (d *Deployment) gcShard(ctx context.Context, s int, active sim.DirEpoch, gcCount *atomic.Int64) error {
	dom := d.DB.Shard(s)
	q := sdb.Query{Domain: dom.Name(), ItemOnly: true, Consistent: true, Limit: reshardCopyPage}
	var stale []string
	for token := ""; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := dom.SelectQuery(q, token)
		if err != nil {
			return err
		}
		for _, it := range page.Items {
			if active.Route(sdb.RouteKey(it.Name)) != s {
				stale = append(stale, it.Name)
			}
		}
		if page.NextToken == "" {
			break
		}
		token = page.NextToken
	}
	var tasks []func() error
	for start := 0; start < len(stale); start += sdb.MaxBatchItems {
		batch := stale[start:min(start+sdb.MaxBatchItems, len(stale))]
		tasks = append(tasks, func() error {
			if err := dom.BatchDeleteAttributes(batch); err != nil {
				return err
			}
			gcCount.Add(int64(len(batch)))
			return nil
		})
	}
	return par.Run(reshardConns, tasks)
}

// migrateQueue drains one decommissioned WAL queue, re-sending every packet
// to its transaction's new-epoch home queue. Messages a daemon is holding
// invisible reappear after the visibility timeout, so the drain sleeps and
// retries until the queue reports empty.
func (d *Deployment) migrateQueue(ctx context.Context, q *sqs.Queue) (int, error) {
	moved := 0
	idle := 0
	for q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return moved, err
		}
		msgs := q.ReceiveMessage(10)
		if len(msgs) == 0 {
			idle++
			if idle > 200 {
				return moved, fmt.Errorf("core: decommissioned queue %s will not drain (%d messages held)", q.Name(), q.Len())
			}
			// Invisible messages: wait out the visibility timeout.
			d.Env.Clock().Sleep(d.Env.Config().StalenessMean)
			continue
		}
		idle = 0
		for _, m := range msgs {
			if pkt, err := decodeWAL(m.Body); err == nil {
				home, release := d.WAL.HomeQueue(pkt.Txn.String())
				_, serr := home.SendMessage(m.Body)
				release()
				if serr != nil {
					return moved, serr
				}
				moved++
			}
			// Undecodable packets are dropped with their queue, exactly as
			// retention would have expired them.
			if err := q.DeleteMessage(m.ReceiptHandle); err != nil {
				return moved, err
			}
		}
	}
	d.Env.Meter().CountOp("reshard.walMigrate", int64(moved))
	return moved, nil
}

// AuditFabric scans every live domain shard with consistent reads and
// verifies placement: every item lives on exactly its active-epoch home.
// It returns the number of misplaced items (on a foreign shard — lost
// capacity or pending GC) and duplicated items (present on more than one
// shard). A settled, fully reshard-completed fabric must report 0/0; the
// reshard benchmark gates on it.
func AuditFabric(d *Deployment) (misplaced, duplicates int, err error) {
	if d.DB.Directory().Migrating() {
		return 0, 0, fmt.Errorf("core: audit during migration")
	}
	epoch := d.DB.Directory().Active()
	seen := make(map[string]int)
	for s := 0; s < d.DB.Shards(); s++ {
		dom := d.DB.Shard(s)
		q := sdb.Query{Domain: dom.Name(), ItemOnly: true, Consistent: true}
		items, _, _, err := dom.SelectAllQuery(q)
		if err != nil {
			return 0, 0, err
		}
		for _, it := range items {
			if epoch.Route(sdb.RouteKey(it.Name)) != s {
				misplaced++
			}
			seen[it.Name]++
		}
	}
	for _, n := range seen {
		if n > 1 {
			duplicates += n - 1
		}
	}
	return misplaced, duplicates, nil
}
