package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// The tenant-isolation harness: drive a compliant tenant's commit workload
// through the front door while an abusive co-tenant replays a retry storm
// against the same fabric under a transient-fault plan, and prove the
// admission layer holds the blast radius — the compliant tenant's commit
// tail latency and goodput must stay within a constant factor of its solo
// baseline, the fabric must hold exactly one copy of every committed item,
// and the compliant tenant's read-back provenance must be byte-identical
// solo vs shared. The same storm with isolation disabled must visibly
// violate the bound (the negative control).

// TenantIsolationScale is the live-mode time scale of the isolation runs.
// The measured path is dominated by modelled service latencies (an S3 PUT
// alone costs ~1.6 simulated seconds), so this scale keeps every measured
// sleep well inside time.Sleep's accurate range.
const TenantIsolationScale = 100

// Storm behaviour: an abusive client ignores RetryAfter hints (which the
// quota below sets in whole seconds) and hammers again after a fraction of
// one request round-trip.
const stormPause = 250 * time.Millisecond

// Quotas. The compliant tenant is provisioned above its offered rate (its
// pacing is client-side), the abuser far below its storm rate, so admission
// — not luck — is what bounds the abuser's share of the shared S3 gate.
var (
	compliantQuota = frontdoor.Quota{Rate: 60, Burst: 32, MaxQueue: 256, Priority: frontdoor.PriorityHigh}
	abusiveQuota   = frontdoor.Quota{Rate: 4, Burst: 2, MaxQueue: 4, Priority: frontdoor.PriorityLow}
)

// TenantIsolationConfig parameterizes one tenant-isolation run.
type TenantIsolationConfig struct {
	Seed          int64
	Txns          int           // compliant tenant's transactions
	BundlesPerTxn int           // provenance bundles (items) per transaction
	Workers       int           // P3 commit-daemon pool size
	ClientConns   int           // compliant tenant's concurrent committers
	OfferedRate   float64       // compliant open-loop arrival rate, commits/sim-sec
	Scale         float64       // live-mode time scale; 0 uses TenantIsolationScale
	K             int           // WAL and DB shards
	FaultProb     float64       // per-request fault probability
	ApplyProb     float64       // fraction of mutating faults that are ambiguous
	DupProb       float64       // queue duplicate-delivery probability
	Abuser        bool          // run the abusive co-tenant storm
	AbuserConns   int           // storm concurrency
	AbuserTxns    int           // size of the fixed transaction set the storm replays
	Isolation     bool          // false = negative control (front door bypassed)
	CombineWindow time.Duration // front-door combine window; 0 = door default
}

// TenantIsolationRun is the measured outcome of one configuration.
type TenantIsolationRun struct {
	Mode          string `json:"mode"` // "solo" | "shared" | "no_isolation"
	Isolation     bool   `json:"isolation"`
	Abuser        bool   `json:"abuser"`
	K             int    `json:"k"`
	Txns          int    `json:"txns"`
	BundlesPerTxn int    `json:"bundles_per_txn"`
	Events        int    `json:"events"` // compliant provenance bundles committed
	Workers       int    `json:"workers"`

	CommitErrors int    `json:"commit_errors"` // failed compliant commits
	FirstError   string `json:"first_error,omitempty"`

	SimSeconds  float64 `json:"sim_seconds"` // compliant commit phase, simulated
	WallSeconds float64 `json:"wall_seconds"`
	Goodput     float64 `json:"goodput_events_per_sim_sec"`

	CommitP50Ms float64 `json:"commit_p50_ms"` // compliant commit latency, simulated
	CommitP99Ms float64 `json:"commit_p99_ms"`

	CompliantAdmitted int64 `json:"compliant_admitted"`
	CompliantQueued   int64 `json:"compliant_queued"`
	CompliantShed     int64 `json:"compliant_shed"`
	AbuserAttempts    int64 `json:"abuser_attempts"`
	AbuserCommitted   int64 `json:"abuser_committed"`
	AbuserAdmitted    int64 `json:"abuser_admitted"`
	AbuserShed        int64 `json:"abuser_shed"`

	Faults            int64 `json:"faults"`
	TenantRetries     int64 `json:"tenant_retries"`       // door's tenant-keyed layer
	TenantBreakerOpen int64 `json:"tenant_breaker_opens"` //
	EndpointRetries   int64 `json:"endpoint_retries"`     // PR 6's per-endpoint layer

	ItemCount   int     `json:"item_count"`
	AbuserItems int     `json:"abuser_items"` // abuser items present after settle
	Misplaced   int     `json:"misplaced"`
	Duplicates  int     `json:"duplicates"`
	TotalOps    int64   `json:"total_ops"`
	CostUSD     float64 `json:"cost_usd"`
	ProvDigest  string  `json:"prov_digest"` // compliant tenant's read-back only
	Verified    bool    `json:"verified"`
}

// tenantIsolationIDs picks the two tenant ids deterministically: the
// compliant tenant is fixed, the abuser is the first candidate whose band
// homes on a different WAL shard at K (at K=1 they necessarily share it).
func tenantIsolationIDs(k int) (compliant, abuser string) {
	compliant = "acme"
	epoch := sim.NewDirectory(k).Active()
	home := epoch.RouteHash(frontdoor.BandFor(compliant).Start())
	for i := 0; ; i++ {
		abuser = fmt.Sprintf("noisy-%d", i)
		if k == 1 || epoch.RouteHash(frontdoor.BandFor(abuser).Start()) != home {
			return compliant, abuser
		}
	}
}

// tenantPipeTxns is commitPipeTxns with every object uuid minted inside the
// tenant's band, so the set co-shards the way front-door traffic does. The
// same (seed, band) always yields the same set — the digest comparison
// between the solo and shared runs depends on it.
func tenantPipeTxns(seed int64, band sim.Band, tag string, txns, bundlesPerTxn int) []pipeTxn {
	rnd := sim.NewRand(seed)
	pad := "" // keep tenant bundles small: the storm replays them endlessly
	for i := 0; i < 40; i++ {
		pad += "tenantpad"
	}
	out := make([]pipeTxn, 0, txns)
	for t := 0; t < txns; t++ {
		procRef := prov.Ref{UUID: core.MintBandUUID(rnd, band), Version: 1}
		fileUUID := core.MintBandUUID(rnd, band)
		path := fmt.Sprintf("mnt/%s/%06d", tag, t)
		bundles := make([]prov.Bundle, 0, bundlesPerTxn)
		bundles = append(bundles, prov.Bundle{
			Ref: procRef, Type: prov.Process, Name: tag + "prog",
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "proc"},
				{Attr: prov.AttrName, Value: tag + "prog"},
				{Attr: prov.AttrEnv, Value: pad},
			},
		})
		var last prov.Ref
		for v := 1; v < bundlesPerTxn; v++ {
			ref := prov.Ref{UUID: fileUUID, Version: v}
			records := []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: path},
				{Attr: prov.AttrInput, Xref: procRef},
				{Attr: prov.AttrEnv, Value: pad},
			}
			if v > 1 {
				records = append(records, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
			}
			bundles = append(bundles, prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: records})
			last = ref
		}
		out = append(out, pipeTxn{
			obj:     core.FileObject{Path: path, Size: 4096, Ref: last},
			bundles: bundles,
			proc:    procRef.UUID,
			file:    fileUUID,
		})
	}
	return out
}

// TenantIsolation runs one configuration: the compliant tenant commits its
// transaction set open-loop through the front door (sleeping RetryAfter on
// backpressure, as a well-behaved client does) while, if configured, the
// abusive tenant's storm replays a fixed transaction set as fast as the
// door lets it, ignoring every backpressure hint. After the storm stops the
// fabric settles, retention and the cleaner garbage-collect whatever the
// abuser abandoned mid-flight, and the run verifies zero lost or duplicated
// items and digests the compliant tenant's read-back provenance.
func TenantIsolation(c TenantIsolationConfig) (TenantIsolationRun, error) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ClientConns <= 0 {
		c.ClientConns = 16
	}
	if c.OfferedRate <= 0 {
		c.OfferedRate = 30
	}
	if c.Scale == 0 {
		c.Scale = TenantIsolationScale
	}
	if c.K <= 0 {
		c.K = 2
	}
	if c.AbuserConns <= 0 {
		// The shared S3 write gate admits ~95 requests/s and a commit's PUT
		// costs ~1.6s of service latency, so a closed-loop storm needs well
		// over 95 x 1.6 outstanding commits before gate queueing dominates
		// the service-latency floor; anything less is a storm the fabric
		// absorbs without the door's help.
		c.AbuserConns = 480
	}
	if c.AbuserTxns <= 0 {
		c.AbuserTxns = 6
	}
	compliantID, abuserID := tenantIsolationIDs(c.K)
	set := tenantPipeTxns(c.Seed, frontdoor.BandFor(compliantID), compliantID, c.Txns, c.BundlesPerTxn)
	abuseSet := tenantPipeTxns(c.Seed^0x5eed, frontdoor.BandFor(abuserID), abuserID, c.AbuserTxns, c.BundlesPerTxn)
	runtime.GC() // keep allocator debt out of the scaled-time measurement

	cfg := sim.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.TimeScale = c.Scale
	cfg.Consistency = sim.Strict // isolate tenant timing from staleness retries
	cfg.DupProb = c.DupProb
	env := sim.NewEnv(cfg)
	dep := core.NewShardedDeployment(env, core.Topology{WALShards: c.K, DBShards: c.K})
	if c.FaultProb > 0 {
		env.InstallFaults(sim.UniformPlan(c.FaultProb, c.ApplyProb))
	}
	p3 := core.NewP3(dep, core.Options{CommitWorkers: c.Workers})
	door := frontdoor.New(dep, p3, frontdoor.Config{
		CombineWindow:    c.CombineWindow,
		DisableIsolation: !c.Isolation,
	})
	compliant := door.Tenant(compliantID, compliantQuota)
	abuser := door.Tenant(abuserID, abusiveQuota)

	mode := "solo"
	switch {
	case c.Abuser && !c.Isolation:
		mode = "no_isolation"
	case c.Abuser:
		mode = "shared"
	}
	run := TenantIsolationRun{
		Mode: mode, Isolation: c.Isolation, Abuser: c.Abuser,
		K: c.K, Txns: c.Txns, BundlesPerTxn: c.BundlesPerTxn,
		Events: c.Txns * c.BundlesPerTxn, Workers: c.Workers,
	}
	wall0 := time.Now()

	// The commit-daemon pool drains the WAL while both tenants log; always
	// joined on the way out.
	stopDaemon := make(chan struct{})
	daemonDone := make(chan struct{})
	go func() {
		defer close(daemonDone)
		p3.RunDaemon(stopDaemon, time.Second)
	}()
	var daemonOnce sync.Once
	stopDaemons := func() {
		daemonOnce.Do(func() {
			close(stopDaemon)
			<-daemonDone
		})
	}
	defer stopDaemons()

	// The storm: AbuserConns clients cycling the fixed abusive set flat out,
	// ignoring RetryAfter. Re-commits of the same content are harmless (they
	// rewrite identical items under fresh transaction uuids); what matters
	// is the request pressure they put on the shared fabric.
	var abAttempts, abCommitted atomic.Int64
	stopStorm := make(chan struct{})
	var stormWG sync.WaitGroup
	if c.Abuser {
		for w := 0; w < c.AbuserConns; w++ {
			w := w
			stormWG.Add(1)
			go func() {
				defer stormWG.Done()
				for j := w; ; j++ {
					select {
					case <-stopStorm:
						return
					default:
					}
					tx := &abuseSet[j%len(abuseSet)]
					abAttempts.Add(1)
					if err := abuser.Commit(tx.obj, tx.bundles); err != nil {
						env.Clock().Sleep(stormPause)
						continue
					}
					abCommitted.Add(1)
				}
			}()
		}
	}
	var stormOnce sync.Once
	stopTheStorm := func() {
		stormOnce.Do(func() {
			close(stopStorm)
			stormWG.Wait()
		})
	}
	defer stopTheStorm()

	// The compliant tenant's phase: open-loop arrivals at OfferedRate spread
	// over ClientConns connections, each commit timed from its arrival and
	// retried (after sleeping the hint) when the door sheds it.
	interarrival := time.Duration(float64(c.ClientConns) / c.OfferedRate * float64(time.Second))
	lat := make([]time.Duration, len(set))
	cerrs := make([]error, len(set))
	work := make(chan int)
	t0 := env.Now()
	var clientWG sync.WaitGroup
	for w := 0; w < c.ClientConns; w++ {
		w := w
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			wrnd := sim.NewRand(c.Seed ^ int64(1000+w))
			for idx := range work {
				tx := &set[idx]
				env.Clock().Sleep(wrnd.Exp(interarrival))
				at := env.Now()
				for {
					err := compliant.Commit(tx.obj, tx.bundles)
					var oc *frontdoor.OverCapacityError
					if errors.As(err, &oc) {
						env.Clock().Sleep(oc.RetryAfter + time.Millisecond)
						continue
					}
					cerrs[idx] = err
					break
				}
				lat[idx] = env.Now() - at
			}
		}()
	}
	for i := range set {
		work <- i
	}
	close(work)
	clientWG.Wait()
	run.SimSeconds = (env.Now() - t0).Seconds()
	stopTheStorm()

	for _, err := range cerrs {
		if err != nil {
			run.CommitErrors++
			if run.FirstError == "" {
				run.FirstError = err.Error()
			}
		}
	}
	committed := (c.Txns - run.CommitErrors) * c.BundlesPerTxn
	if run.SimSeconds > 0 {
		run.Goodput = float64(committed) / run.SimSeconds
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	run.CommitP50Ms = pctMs(lat, 50)
	run.CommitP99Ms = pctMs(lat, 99)

	// Drain everything assembled, fault-free, then stop the pool.
	if f := env.Faults(); f != nil {
		f.SetPlan(nil)
	}
	verify := c.Isolation
	if verify {
		if err := p3.Settle(); err != nil {
			return run, err
		}
	}
	stopDaemons()
	if verify {
		if err := p3.Settle(); err != nil {
			return run, err
		}
	}
	run.WallSeconds = time.Since(wall0).Seconds()

	usage := env.Meter().Usage()
	run.TotalOps = usage.TotalOps
	run.CostUSD = usage.Cost(cfg.StorageWindow)
	run.Faults = usage.Faults
	if ops, ok := usage.OpsByTenant[compliantID]; ok {
		run.CompliantAdmitted, run.CompliantQueued, run.CompliantShed = ops.Admitted, ops.Queued, ops.Shed
	}
	if ops, ok := usage.OpsByTenant[abuserID]; ok {
		run.AbuserAdmitted, run.AbuserShed = ops.Admitted, ops.Shed
	}
	run.AbuserAttempts = abAttempts.Load()
	run.AbuserCommitted = abCommitted.Load()
	st := door.Resilience().Stats().Totals()
	run.TenantRetries, run.TenantBreakerOpen = st.Retries, st.BreakerOpens
	if dep.Res != nil {
		run.EndpointRetries = dep.Res.Stats().Totals().Retries
	}

	// The negative control only measures — a fabric an unthrottled storm
	// flooded takes unboundedly long to drain, and the bound violation it
	// exists to show is already in the numbers above.
	if !verify {
		return run, nil
	}

	// Verification outside the measurement, on an instant clock. The storm
	// abandons transactions mid-send (its tenant breaker cuts it off between
	// WAL batches), so first let retention expire the orphaned packets and
	// the cleaner collect the orphaned temp objects — the same path that
	// cleans up crashed clients — then require a fabric as clean as a calm
	// run's: empty WAL, no temp leaks, exact item count, placement audit.
	env.Clock().SetScale(0)
	env.Clock().Advance(5 * 24 * time.Hour)
	if _, err := p3.RunCleaner(0); err != nil {
		return run, fmt.Errorf("bench: cleaner after storm: %w", err)
	}
	if n := dep.WAL.Len(); n != 0 {
		return run, fmt.Errorf("bench: %d WAL messages left after retention", n)
	}
	if keys, _, _ := dep.Store.ListAll(core.TmpPrefix); len(keys) != 0 {
		return run, fmt.Errorf("bench: %d temp objects leaked", len(keys))
	}

	// Ground truth for the abuser: a transaction the storm abandoned must
	// have left nothing, a transaction that landed at least once must be
	// complete — all or nothing, per transaction.
	for i := range abuseSet {
		nproc, err := provItemCount(dep, abuseSet[i].proc)
		if err != nil {
			return run, err
		}
		nfile, err := provItemCount(dep, abuseSet[i].file)
		if err != nil {
			return run, err
		}
		whole := nproc == 1 && nfile == c.BundlesPerTxn-1
		empty := nproc == 0 && nfile == 0
		if !whole && !empty {
			return run, fmt.Errorf("bench: partial abuser txn %d: proc=%d file=%d items", i, nproc, nfile)
		}
		run.AbuserItems += nproc + nfile
	}
	run.ItemCount = dep.DB.ItemCount()
	if want := run.Events + run.AbuserItems; run.ItemCount != want {
		return run, fmt.Errorf("bench: %d items in fabric, want %d (lost or duplicated)", run.ItemCount, want)
	}
	mis, dup, err := core.AuditFabric(dep)
	if err != nil {
		return run, fmt.Errorf("bench: fabric audit: %w", err)
	}
	run.Misplaced, run.Duplicates = mis, dup
	if mis != 0 || dup != 0 {
		return run, fmt.Errorf("bench: audit found %d misplaced, %d duplicated", mis, dup)
	}

	// Digest the compliant tenant's read-back provenance and data pointers;
	// the solo and shared runs must agree byte for byte.
	h := sha256.New()
	for i := range set {
		for _, u := range []uuid.UUID{set[i].file, set[i].proc} {
			bundles, err := core.ReadProvenance(dep, core.BackendSDB, u)
			if err != nil {
				return run, fmt.Errorf("bench: read-back of %s: %w", u, err)
			}
			h.Write(prov.EncodeBundles(bundles))
		}
		o, err := dep.Store.Get(core.DataKey(set[i].obj.Path))
		if err != nil {
			return run, fmt.Errorf("bench: data of %s: %w", set[i].obj.Path, err)
		}
		h.Write([]byte(o.Metadata["prov-uuid"] + "/" + o.Metadata["prov-version"]))
	}
	run.ProvDigest = hex.EncodeToString(h.Sum(nil))
	run.Verified = true
	return run, nil
}

// provItemCount reads back one uuid's item count; absence is zero.
func provItemCount(dep *core.Deployment, u uuid.UUID) (int, error) {
	bundles, err := core.ReadProvenance(dep, core.BackendSDB, u)
	if errors.Is(err, core.ErrNoProvenance) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("bench: read-back of %s: %w", u, err)
	}
	return len(bundles), nil
}
