package sqs

import (
	"fmt"
	"time"

	"passcloud/internal/sim"
)

// QueueSet is a K-way sharded set of queues acting as one logical write-ahead
// log. Each shard is a distinct service queue with its own request-rate
// ceiling (its own gate lane), so a K-way set admits K times the requests per
// second of a single queue — the scaling lever the paper's single-queue P3
// lacks.
//
// Placement is governed by an epoch-versioned sim.Directory (via the shared
// sim.EpochSet lifecycle), so the set can reshard live: new transactions
// route by the newest epoch (the migration target as soon as the window
// opens, so grown queues take load immediately), while commit daemons poll
// the union of both epochs' shards until the old ones drain. WAL messages
// are transient, so unlike the domain set nothing is double-written — a
// transaction's packets all land on one queue, and any covered queue reaches
// a daemon.
//
// Discovery is by convention: shard i of logical queue "wal" is the service
// queue "wal-i" (a set created at K == 1 keeps the bare name for shard 0
// forever, so the seed topology's queue layout is byte-identical and the
// endpoint identity survives growth). A commit daemon discovers its shard
// set with Shards/Shard and routes by key with ShardFor; every participant
// consults the same directory, so clients and daemons on different hosts
// agree on every message's home shard without coordination.
type QueueSet struct {
	env  *sim.Env
	base string
	ep   *sim.EpochSet

	// Guarded by ep's lock (mutated via ep.Locked / the grow callback).
	shards   []*Queue // index == shard id; may exceed the live count mid-shrink
	bareZero bool
	// Sticky per-shard settings, applied to queues grown mid-flight.
	visibility time.Duration
	retention  time.Duration
}

// NewSet creates a K-way queue set. k < 1 is clamped to 1; k == 1 yields a
// single queue named base (the seed topology).
func NewSet(env *sim.Env, base string, k int) *QueueSet {
	if k < 1 {
		k = 1
	}
	s := &QueueSet{
		env:        env,
		base:       base,
		bareZero:   k == 1,
		visibility: DefaultVisibility,
		retention:  DefaultRetention,
	}
	s.ep = sim.NewEpochSet(k, s.growLocked)
	s.ep.OnShrink(s.trimLocked)
	return s
}

// shardName names shard i's service queue.
func (s *QueueSet) shardName(i int) string {
	if i == 0 && s.bareZero {
		return s.base
	}
	return fmt.Sprintf("%s-%d", s.base, i)
}

// growLocked ensures queue slots [0, k) exist (called under the epoch-set
// lock), inheriting the set's current visibility and retention overrides.
func (s *QueueSet) growLocked(k int) {
	for i := len(s.shards); i < k; i++ {
		q := NewLane(s.env, s.shardName(i), i)
		q.SetVisibility(s.visibility)
		q.SetRetention(s.retention)
		s.shards = append(s.shards, q)
	}
}

// trimLocked releases the drained queue slots beyond k after a shrink
// (called under the epoch-set lock). The slice is copied, not truncated in
// place: snapshots taken by queues() before the shrink may still alias the
// old backing array, and a later grow must not append over their tails.
func (s *QueueSet) trimLocked(k int) {
	s.shards = append([]*Queue(nil), s.shards[:k]...)
}

// Env returns the environment the set charges against.
func (s *QueueSet) Env() *sim.Env { return s.env }

// Base returns the logical queue name the shards derive theirs from.
func (s *QueueSet) Base() string { return s.base }

// Directory returns the placement directory (epoch inspection, provctl).
func (s *QueueSet) Directory() *sim.Directory { return s.ep.Directory() }

// Shards reports the number of live queue shards (both epochs' queues
// during a migration and until a shrink's drained queues are retired).
func (s *QueueSet) Shards() int { return s.ep.Live() }

// Shard returns shard i, or nil if i is outside the live set (a daemon may
// hold a subscription computed just before a shrink decommissioned it).
func (s *QueueSet) Shard(i int) *Queue {
	var q *Queue
	s.ep.View(func(ev sim.EpochView) {
		if i >= 0 && i < ev.Live {
			q = s.shards[i]
		}
	})
	return q
}

// ShardFor routes a key (P3 uses the transaction uuid) to its home shard in
// the newest epoch.
func (s *QueueSet) ShardFor(key string) int { return s.Directory().RouteNewest(key) }

// HomeQueue resolves key's home queue under the current routing view and
// registers the send against the reshard barrier; callers must invoke the
// returned release once the messages are on the queue, so a shrink cannot
// retire a queue with a send still in flight toward it.
func (s *QueueSet) HomeQueue(key string) (*Queue, func()) {
	var q *Queue
	release := s.ep.BeginWrite(func(ev sim.EpochView) {
		q = s.shards[sim.RouteNewestFor(ev.Active, ev.Target, key)]
	})
	return q, release
}

// BeginMigration opens (or resumes) an epoch transition to k shards,
// creating the grown service queues.
func (s *QueueSet) BeginMigration(k int) (target sim.DirEpoch, resumed, done bool) {
	return s.ep.BeginMigration(k)
}

// Cutover promotes the target epoch to active. A shrink's decommissioned
// queues stay live (and polled) until ShrinkTo retires them drained.
func (s *QueueSet) Cutover() { s.ep.Cutover() }

// ShrinkTo retires queue slots beyond k once a shrink migration has drained
// them.
func (s *QueueSet) ShrinkTo(k int) { s.ep.ShrinkTo(k) }

// DrainPriorSends blocks until every send routed under an older view has
// reached its queue; the resharder calls it before trusting a queue-drain
// check.
func (s *QueueSet) DrainPriorSends() { s.ep.DrainPriorWrites() }

// queues snapshots the live queue list.
func (s *QueueSet) queues() []*Queue {
	var out []*Queue
	s.ep.View(func(ev sim.EpochView) {
		out = append(out, s.shards[:ev.Live]...)
	})
	return out
}

// SetVisibility overrides the visibility timeout on every shard, present
// and future.
func (s *QueueSet) SetVisibility(d time.Duration) {
	var qs []*Queue
	s.ep.Locked(func() {
		s.visibility = d
		qs = append(qs, s.shards...)
	})
	for _, q := range qs {
		q.SetVisibility(d)
	}
}

// SetRetention overrides the message retention period on every shard,
// present and future.
func (s *QueueSet) SetRetention(d time.Duration) {
	var qs []*Queue
	s.ep.Locked(func() {
		s.retention = d
		qs = append(qs, s.shards...)
	})
	for _, q := range qs {
		q.SetRetention(d)
	}
}

// Len reports the undeleted, unexpired messages across all live shards.
func (s *QueueSet) Len() int {
	n := 0
	for _, q := range s.queues() {
		n += q.Len()
	}
	return n
}

// ShardBacklog reports each live shard's undeleted, unexpired message count,
// keyed by service queue name — the per-shard WAL backlog signal the
// autoscale sampler surfaces as meter gauges.
func (s *QueueSet) ShardBacklog() map[string]int {
	out := make(map[string]int)
	for _, q := range s.queues() {
		out[q.Name()] = q.Len()
	}
	return out
}

// Slots reports how many shard slots are materialized, live or not —
// observability for the bounded-retention invariant (retired slots must be
// released, not accumulated, across repeated reshard cycles).
func (s *QueueSet) Slots() int {
	n := 0
	s.ep.Locked(func() { n = len(s.shards) })
	return n
}

// GC runs a retention pass on every live shard and reports how many expired
// messages were dropped in total.
func (s *QueueSet) GC() int {
	n := 0
	for _, q := range s.queues() {
		n += q.GCExpired()
	}
	return n
}
