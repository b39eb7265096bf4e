package sim

// Retrier is the client-side retry layer every endpoint request routes
// through (package resilient's Client satisfies it). It is attached once, on
// the Env, so endpoints created at any time — shards a reshard materializes
// mid-run included — retry like their peers without propagation.
type Retrier interface {
	// Do runs op against the named endpoint, retrying as its policy says.
	Do(endpoint string, op func() error) error
}

// SetRetrier attaches r (nil detaches it) to every endpoint of the env,
// present and future; each endpoint reads it on its next request.
func (e *Env) SetRetrier(r Retrier) {
	e.faultMu.Lock()
	e.retrier = r
	e.faultMu.Unlock()
}

// Retrier returns the attached retry layer, or nil.
func (e *Env) Retrier() Retrier {
	e.faultMu.Lock()
	defer e.faultMu.Unlock()
	return e.retrier
}

// Endpoint is one named service partition — the "s3" bucket, a SimpleDB
// domain such as "prov-2", an SQS queue such as "wal-1" — on its rate-gate
// lane. It owns the steps every simulated request repeats: the env's retry
// layer (Do), the fault point (Fault) and the gate, latency and meter charge
// (Charge). Each service op still decides where its state change falls
// between them.
type Endpoint struct {
	env  *Env
	name string
	lane int
}

// NewEndpoint binds the endpoint name on lane (0: the env's default gates)
// to env.
func NewEndpoint(env *Env, name string, lane int) Endpoint {
	return Endpoint{env: env, name: name, lane: lane}
}

// Name returns the endpoint name faults, retries and the meter key on.
func (e Endpoint) Name() string { return e.name }

// Do runs one request's attempt through the env's retrier, keyed by the
// endpoint name; with no retrier attached it runs attempt once.
func (e Endpoint) Do(attempt func() error) error {
	if r := e.env.Retrier(); r != nil {
		return r.Do(e.name, attempt)
	}
	return attempt()
}

// Fault consults the fault injector for one request of op kind kind;
// mutating marks state-changing ops (eligible for the ambiguous
// fail-applied outcome). A clean rejection (not applied) is billed as a
// failed 0-byte round-trip on the endpoint's lane, exactly as a real 503
// costs a request; an applied fault leaves the caller to apply and charge
// the request and still return err.
func (e Endpoint) Fault(op OpKind, kind string, mutating bool) (err error, applied bool) {
	err, applied = e.env.FaultPoint(e.name, kind, mutating)
	if err != nil && !applied {
		e.Charge(op, kind, 0)
	}
	return err, applied
}

// Charge executes one request of op on the endpoint's lane (gate, latency,
// billing) and counts it by kind and by endpoint.
func (e Endpoint) Charge(op OpKind, kind string, nbytes int) {
	e.env.ExecLane(op, nbytes, e.lane)
	m := e.env.Meter()
	m.CountOp(kind, int64(nbytes))
	m.CountEndpointOp(e.name)
}
