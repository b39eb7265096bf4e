// Package frontdoor is the multi-tenant admission layer in front of a
// core.Deployment — the piece that turns a single-client protocol stack
// into a service edge that can take traffic from many tenants without one
// of them melting a shared shard.
//
// # Admission model
//
// Every tenant registers with a Quota and commits through its Tenant
// handle. Admission is a GCRA token bucket on the simulated clock: each
// commit needs one token, tokens accrue at Quota.Rate per second with
// Quota.Burst of headroom, and a commit that arrives ahead of its token
// waits in a bounded admission queue (the wait is virtual time — the
// commit sleeps until its theoretical arrival time). The queue bound is
// Quota.MaxQueue scaled by the tenant's Priority share, so when a shared
// fabric saturates, low-priority tenants are shed first and high-priority
// ones keep most of their queue depth — priority-aware load shedding
// rather than collapse.
//
// Overload is typed backpressure, not an opaque failure: a commit past the
// queue bound returns an *OverCapacityError (errors.Is-able as
// ErrOverCapacity) carrying the tenant and a RetryAfter hint in virtual
// time, the earliest point a retry could be admitted. Well-behaved clients
// sleep RetryAfter and retry; the admission state is not advanced for shed
// requests, so shedding never costs the tenant tokens.
//
// Every admission outcome is metered per tenant (sim.Meter's
// Usage.OpsByTenant: admitted / queued / shed) and surfaced by
// `provctl tenants stats`.
//
// # Placement: tenant identity folds into the routing key
//
// Each tenant owns a Band — one 1/256th slice of the routing-hash space,
// derived from its id (BandFor). Tenant.NewUUID mints object uuids inside
// the band (core.MintBandUUID) and Tenant.Commit mints transaction uuids
// the same way, so a tenant's provenance items and WAL traffic co-shard on
// the band's home shard and migrate together across reshards. The routing
// key is still the uuid itself, so routed reads, scatter-gather merges and
// the placement audit work unchanged; a tenant can be moved independently
// by resharding the range its band falls in.
//
// # Tenant-scoped resilience
//
// The door layers a second resilient.Client, keyed "tenant/<id>", over the
// per-endpoint one the deployment attaches once on its environment (every
// endpoint, S3 included, retries through that one). A commit's WAL flush
// runs inside the tenant-keyed retry loop (which wraps the per-endpoint
// retries every request already performs), so retry budgets and circuit
// breakers exist per tenant:
// an abusive tenant replaying a retry storm exhausts only its own budget
// and trips only its own breaker, while other tenants' keys — and their
// endpoints' budgets, which the abuser can no longer reach through the open
// tenant breaker — stay healthy.
//
// # WAL write combining
//
// Small transactions produce WAL batches far below the 10-entry
// SendMessageBatch limit. The door's combiner holds a commit's prepared
// entries (core.PrepareCommit) for a short window per home queue and packs
// every tenant caller's entries that arrive within it into full batches —
// fewer billed requests and fewer rate-gate admissions on the hot shard.
// Retries are exactly-once regardless of batch composition: every entry
// carries its own idempotency token (txn uuid + chunk seq) and the queue
// deduplicates per entry (sqs.SendMessageBatchEntries), so a retried flush
// — even one recombined with different neighbours — never double-enqueues
// a packet that already landed.
//
// Config.DisableIsolation bypasses quotas, tenant-keyed resilience and
// combining (placement still applies) — the negative control the
// tenant-isolation bench uses to show the machinery is what holds the
// isolation bound.
package frontdoor
