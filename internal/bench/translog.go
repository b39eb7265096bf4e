package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
)

// The tamper-detection harness: drive the pinned commit + reshard workload
// through P3 with the transparency-log sequencer attached, then prove the
// trust story end to end — every committed transaction has a verifying
// inclusion proof, consecutive signed tree heads prove consistent, the
// auditor replays the log against the fabric cleanly, a rewritten bundle is
// flagged, and the sequencer's overhead leaves the client commit tail
// within 1.3x of a log-disabled twin.

// TranslogBenchScale is the live-mode time scale of the translog runs.
const TranslogBenchScale = 50

// TamperConfig parameterizes one transparency-log run.
type TamperConfig struct {
	Seed          int64
	Txns          int
	BundlesPerTxn int
	Workers       int     // P3 commit-daemon pool size
	ClientConns   int     // concurrent client commits
	Scale         float64 // live-mode time scale; 0 uses TranslogBenchScale
	FromK         int     // starting topology (WAL and DB shards)
	ToK           int     // reshard target; == FromK skips the reshard phase
	FaultProb     float64 // per-request fault probability (0 = fault-free)
	ApplyProb     float64 // fraction of mutating faults that are ambiguous
	LogEnabled    bool    // false = the log-disabled twin for the overhead gate
	Tamper        bool    // negative control: rewrite one bundle before the audit
	// CheckpointEvery is the sequencer daemon's interval (simulated time);
	// zero uses one second.
	CheckpointEvery time.Duration
}

// TamperRun is the measured outcome of one transparency-log configuration.
type TamperRun struct {
	LogEnabled    bool    `json:"log_enabled"`
	Tamper        bool    `json:"tamper"`
	FaultProb     float64 `json:"fault_prob"`
	FromK         int     `json:"from_k"`
	ToK           int     `json:"to_k"`
	Txns          int     `json:"txns"`
	BundlesPerTxn int     `json:"bundles_per_txn"`
	Events        int     `json:"events"`
	Workers       int     `json:"workers"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	CommitP50Ms float64 `json:"commit_p50_ms"` // client commit latency, simulated
	CommitP99Ms float64 `json:"commit_p99_ms"`

	TreeSize           int   `json:"tree_size"`
	LogAppends         int64 `json:"log_appends"`
	LogHeads           int64 `json:"log_heads"`
	InclusionVerified  int   `json:"inclusion_verified"`
	ConsistencyChecked int   `json:"consistency_checked"`
	HeadsVerified      int   `json:"heads_verified"`
	AuditClean         bool  `json:"audit_clean"`
	ProofFailures      int   `json:"proof_failures"`
	Divergences        int   `json:"divergences"`
	TamperFlagged      bool  `json:"tamper_flagged"`
	ReopenedOK         bool  `json:"reopened_ok"` // cold Open rebuilt the same head

	ItemCount  int     `json:"item_count"`
	Misplaced  int     `json:"misplaced"`
	Duplicates int     `json:"duplicates"`
	Faults     int64   `json:"faults"`
	TotalOps   int64   `json:"total_ops"`
	CostUSD    float64 `json:"cost_usd"`
}

// TamperDetection runs one transparency-log configuration: commit half the
// transaction set, grow the fabric FromK→ToK while the other half commits,
// settle, checkpoint, then verify every proof the log can issue and audit
// the log against the fabric. With Tamper set, one persisted bundle is
// rewritten behind the fabric's back first — the run then reports whether
// the auditor caught it.
func TamperDetection(c TamperConfig) (TamperRun, error) {
	if c.ClientConns <= 0 {
		c.ClientConns = 32
	}
	if c.Scale == 0 {
		c.Scale = TranslogBenchScale
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = time.Second
	}
	set := commitPipeTxns(c.Seed, c.Txns, c.BundlesPerTxn)
	runtime.GC()

	cfg := sim.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.TimeScale = c.Scale
	cfg.Consistency = sim.Strict // isolate log overhead from staleness retries
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: c.FromK, DBShards: c.FromK})
	if c.FaultProb > 0 {
		env.InstallFaults(sim.UniformPlan(c.FaultProb, c.ApplyProb))
	}
	p3 := core.NewP3(dep, core.Options{CommitWorkers: c.Workers})

	run := TamperRun{
		LogEnabled: c.LogEnabled, Tamper: c.Tamper, FaultProb: c.FaultProb,
		FromK: c.FromK, ToK: c.ToK,
		Txns: c.Txns, BundlesPerTxn: c.BundlesPerTxn, Events: c.Txns * c.BundlesPerTxn,
		Workers: c.Workers,
	}

	var l *translog.Log
	var seqStop chan struct{}
	var seqDone chan struct{}
	if c.LogEnabled {
		l = translog.New(env, dep.Store, "")
		defer l.Attach(dep.Commits)()
		seqStop, seqDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(seqDone)
			l.Run(seqStop, c.CheckpointEvery)
		}()
	}

	// checkpoint retries through the armed fault plan: every stage is
	// idempotent, so re-running rolls the durable state forward.
	checkpoint := func() (translog.SignedHead, error) {
		var h translog.SignedHead
		var err error
		for attempt := 0; attempt < 200; attempt++ {
			if h, err = l.Checkpoint(); err == nil {
				return h, nil
			}
		}
		return h, fmt.Errorf("bench: checkpoint never succeeded: %w", err)
	}

	var latMu sync.Mutex
	lat := make([]time.Duration, 0, len(set))
	commitBatch := func(batch []pipeTxn) error {
		sem := make(chan struct{}, c.ClientConns)
		errs := make(chan error, len(batch))
		for i := range batch {
			tx := &batch[i]
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				t0 := env.Now()
				err := p3.Commit(tx.obj, tx.bundles)
				d := env.Now() - t0
				latMu.Lock()
				lat = append(lat, d)
				latMu.Unlock()
				errs <- err
			}()
		}
		var first error
		for range batch {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	stopDaemon := make(chan struct{})
	daemonDone := make(chan struct{})
	go func() {
		defer close(daemonDone)
		p3.RunDaemon(stopDaemon, time.Second)
	}()
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			close(stopDaemon)
			<-daemonDone
			if seqStop != nil {
				close(seqStop)
				<-seqDone
			}
		})
	}
	defer stop()

	wall0 := time.Now()
	t0 := env.Now()
	half := len(set) / 2
	if err := commitBatch(set[:half]); err != nil {
		return run, fmt.Errorf("bench: first commit phase: %w", err)
	}
	if err := p3.Settle(); err != nil {
		return run, err
	}
	// The witnessed head: a third party saw this commitment before the
	// reshard and the second commit phase; everything after must prove
	// consistency against it.
	var witness translog.SignedHead
	if c.LogEnabled {
		var err error
		if witness, err = checkpoint(); err != nil {
			return run, err
		}
	}

	resCh := make(chan error, 1)
	if c.ToK != c.FromK {
		go func() {
			_, err := dep.Reshard(context.Background(), core.Topology{WALShards: c.ToK, DBShards: c.ToK})
			resCh <- err
		}()
	} else {
		resCh <- nil
	}
	err := commitBatch(set[half:])
	if rerr := <-resCh; rerr != nil {
		return run, fmt.Errorf("bench: reshard: %w", rerr)
	}
	if err != nil {
		return run, fmt.Errorf("bench: second commit phase: %w", err)
	}
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.SimSeconds = (env.Now() - t0).Seconds()

	stop()
	if err := p3.Settle(); err != nil {
		return run, err
	}
	run.WallSeconds = time.Since(wall0).Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	run.CommitP50Ms = pctMs(lat, 50)
	run.CommitP99Ms = pctMs(lat, 99)

	// Verification outside the measurement: instant clock, fault plan
	// disarmed (the proofs and the audit are the subject here, not the
	// retry machinery — the unit tests cover auditing under live faults).
	env.Clock().SetScale(0)
	if c.FaultProb > 0 {
		env.InstallFaults(sim.FaultPlan{})
	}
	usage := env.Meter().Usage()
	run.Faults = usage.Faults
	run.ItemCount = dep.DB.ItemCount()
	mis, dup, err := core.AuditFabric(dep)
	if err != nil {
		return run, err
	}
	run.Misplaced, run.Duplicates = mis, dup

	if c.LogEnabled {
		head, err := checkpoint() // final durable head
		if err != nil {
			return run, err
		}
		run.TreeSize = head.TreeSize

		if c.Tamper {
			// Negative control: rewrite one committed item's attributes
			// directly on its home shard, behind the fabric's back.
			victim := l.Leaves()[len(l.Leaves())/2].Items[0].Name
			dom := dep.DB.Shard(dep.DB.ShardForItem(victim))
			it, err := dom.GetAttributes(victim)
			if err != nil {
				return run, err
			}
			attrs := append([]sdb.Attr(nil), it.Attrs...)
			attrs[0].Value += "-rewritten"
			if err := dom.PutAttributes(sdb.PutRequest{Item: victim, Attrs: attrs, Replace: true}); err != nil {
				return run, err
			}
		}

		rep, err := translog.Audit(dep, l, translog.AuditOptions{Witness: &witness})
		if err != nil {
			return run, err
		}
		run.AuditClean = rep.Clean()
		run.InclusionVerified = rep.InclusionVerified
		run.ConsistencyChecked = rep.ConsistencyChecked
		run.HeadsVerified = rep.HeadsVerified
		run.ProofFailures = len(rep.ProofFailures)
		run.Divergences = len(rep.Divergences)
		for _, d := range rep.Divergences {
			if d.Kind == translog.DivTampered {
				run.TamperFlagged = true
			}
		}

		// Third-party posture: a cold Open from the durable state alone
		// must rebuild the identical signed head (skipped after a tamper —
		// the rewritten fabric is the divergence under test, not the log).
		if !c.Tamper {
			reopened, err := translog.Open(env, dep.Store, "")
			if err != nil {
				return run, fmt.Errorf("bench: cold open: %w", err)
			}
			run.ReopenedOK = reopened.Head() == head
		}
	}
	usage = env.Meter().Usage()
	run.LogAppends = usage.LogAppends
	run.LogHeads = usage.LogHeads
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(cfg.StorageWindow)

	// A logged run ends as clean as an unlogged one.
	if n := dep.WAL.Len(); n != 0 {
		return run, fmt.Errorf("bench: %d WAL messages left after settle", n)
	}
	if n := p3.PendingTxns(); n != 0 {
		return run, fmt.Errorf("bench: %d transactions still pending", n)
	}
	return run, nil
}
