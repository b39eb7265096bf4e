package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The sharded-fabric benchmark: replay the ≥50k-event commit workload of
// BenchmarkCommitPipeline through P3 on a K-way sharded fabric (K WAL
// queues, K SimpleDB domains, each with its own request-rate gate) and on
// the K=1 seed topology, and compare simulated time, billed requests and
// dollar cost. Every configuration commits byte-identical provenance,
// verified by reading every object's bundles back through the (routed)
// ReadProvenance and hashing them: the digest must not depend on K.

// ShardedWriteScale is the live-mode time scale of the sharded-write
// benchmark. It is deliberately far lower than CommitPipeScale: the sharded
// comparison hinges on per-endpoint gate queueing, so the modelled service
// latency — not the host's own compute time, which a 2000x compression
// magnifies into most of the measurement — must dominate the run. At 50x
// the measured sim times are within a few percent of a 25x run (scale
// convergence), i.e. the measurement is honest.
const ShardedWriteScale = 50

// ShardedWriteRun is one measured configuration of the sharded-write
// benchmark.
type ShardedWriteRun struct {
	WALShards     int              `json:"wal_shards"`
	DBShards      int              `json:"db_shards"`
	Txns          int              `json:"txns"`
	BundlesPerTxn int              `json:"bundles_per_txn"`
	Events        int              `json:"events"`
	Workers       int              `json:"workers"`
	SimSeconds    float64          `json:"sim_seconds"`
	WallSeconds   float64          `json:"wall_seconds"`
	SQSRequests   int64            `json:"sqs_requests"`
	SDBBatchCalls int64            `json:"sdb_batch_calls"`
	TotalOps      int64            `json:"total_ops"` // billed requests, all services
	CostUSD       float64          `json:"cost_usd"`
	OpsByKind     map[string]int64 `json:"ops_by_kind"`
	OpsByShard    map[string]int64 `json:"ops_by_shard"` // per endpoint: s3, queues, domains
	ProvDigest    string           `json:"prov_digest"`
}

// ShardedWrite measures one fabric configuration. workers sizes the
// commit-daemon pool, clientConns bounds concurrent client commits, scale 0
// uses CommitPipeScale, and topo sizes the WAL/domain shard sets (the zero
// value is the K=1 seed topology).
func ShardedWrite(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, topo core.Topology) (ShardedWriteRun, error) {
	if clientConns <= 0 {
		clientConns = 64
	}
	if scale == 0 {
		scale = ShardedWriteScale
	}
	set := commitPipeTxns(seed, txns, bundlesPerTxn)
	runtime.GC() // keep allocator debt out of the scaled-time measurement

	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.TimeScale = scale
	cfg.Consistency = sim.Strict // isolate commit timing from staleness retries
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, topo)
	p3 := core.NewP3(dep, core.Options{CommitWorkers: workers})

	// The commit-daemon pool drains its shard subscriptions while the
	// clients log.
	stopDaemon := make(chan struct{})
	daemonDone := make(chan struct{})
	go func() {
		defer close(daemonDone)
		p3.RunDaemon(stopDaemon, time.Second)
	}()

	sim0 := env.Now()
	wall0 := time.Now()
	sem := make(chan struct{}, clientConns)
	errs := make(chan error, len(set))
	for i := range set {
		tx := &set[i]
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errs <- p3.Commit(tx.obj, tx.bundles)
		}()
	}
	var firstErr error
	for range set {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(stopDaemon)
	<-daemonDone
	if err := p3.Settle(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return ShardedWriteRun{}, firstErr
	}

	usage := env.Meter().Usage()
	run := ShardedWriteRun{
		WALShards:     dep.Topo.WALShards,
		DBShards:      dep.Topo.DBShards,
		Txns:          txns,
		BundlesPerTxn: bundlesPerTxn,
		Events:        txns * bundlesPerTxn,
		Workers:       workers,
		SimSeconds:    (env.Now() - sim0).Seconds(),
		WallSeconds:   time.Since(wall0).Seconds(),
		SQSRequests:   sqsRequests(usage),
		SDBBatchCalls: usage.OpsByKind["sdb.BatchPutAttributes"],
		TotalOps:      usage.TotalOps,
		CostUSD:       usage.Cost(cfg.StorageWindow),
		OpsByKind:     usage.OpsByKind,
		OpsByShard:    usage.OpsByEndpoint,
	}

	// Read every transaction's provenance back (outside the measurement, on
	// an instant manual clock) and fold it into the run digest; equal
	// digests across shard counts prove the fabric's routing and merge
	// reproduce the canonical single-domain read results byte for byte.
	env.Clock().SetScale(0)
	h := sha256.New()
	for i := range set {
		for _, u := range []uuid.UUID{set[i].file, set[i].proc} {
			bundles, err := core.ReadProvenance(dep, core.BackendSDB, u)
			if err != nil {
				return ShardedWriteRun{}, fmt.Errorf("bench: read-back of %s: %w", u, err)
			}
			h.Write(prov.EncodeBundles(bundles))
		}
		o, err := dep.Store.Get(core.DataKey(set[i].obj.Path))
		if err != nil {
			return ShardedWriteRun{}, fmt.Errorf("bench: data of %s: %w", set[i].obj.Path, err)
		}
		h.Write([]byte(o.Metadata["prov-uuid"] + "/" + o.Metadata["prov-version"]))
	}
	run.ProvDigest = hex.EncodeToString(h.Sum(nil))

	// A clean fabric leaves nothing behind on any shard.
	if n := dep.WAL.Len(); n != 0 {
		return ShardedWriteRun{}, fmt.Errorf("bench: %d WAL messages left after settle", n)
	}
	if keys, _, _ := dep.Store.ListAll(core.TmpPrefix); len(keys) != 0 {
		return ShardedWriteRun{}, fmt.Errorf("bench: %d temp objects leaked", len(keys))
	}
	if n := p3.PendingTxns(); n != 0 {
		return ShardedWriteRun{}, fmt.Errorf("bench: %d transactions still pending", n)
	}
	return run, nil
}
