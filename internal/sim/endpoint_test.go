package sim

import (
	"errors"
	"testing"
)

// countingRetrier records the endpoints it was asked to run and runs each
// op once.
type countingRetrier struct{ calls []string }

func (r *countingRetrier) Do(endpoint string, op func() error) error {
	r.calls = append(r.calls, endpoint)
	return op()
}

// TestEndpointRequestPath pins the one request path every simulated service
// shares: retrier lookup, fault point and charge.
func TestEndpointRequestPath(t *testing.T) {
	t.Run("nil retrier runs one attempt", func(t *testing.T) {
		env := NewEnv(DefaultConfig())
		ep := NewEndpoint(env, "prov-1", 1)
		attempts := 0
		errBoom := errors.New("boom")
		if err := ep.Do(func() error { attempts++; return errBoom }); err != errBoom {
			t.Fatalf("err = %v, want the attempt's error", err)
		}
		if attempts != 1 {
			t.Fatalf("attempts = %d, want 1", attempts)
		}
	})

	t.Run("clean rejection bills one 0-byte request on the lane", func(t *testing.T) {
		env := NewEnv(DefaultConfig())
		env.InstallFaults(FaultPlan{"prov-3": {Prob: 1}})
		ep := NewEndpoint(env, "prov-3", 3)
		err, applied := ep.Fault(OpSDBBatchPut, "sdb.BatchPutAttributes", true)
		if !IsTransient(err) || applied {
			t.Fatalf("Fault = (%v, %v), want a clean transient rejection", err, applied)
		}
		u := env.Meter().Usage()
		if u.Requests[CostSDB] != 1 || u.BytesIn != 0 {
			t.Fatalf("billed %d SimpleDB requests, %d bytes in; want 1 and 0", u.Requests[CostSDB], u.BytesIn)
		}
		if u.OpsByKind["sdb.BatchPutAttributes"] != 1 || u.BytesByKind["sdb.BatchPutAttributes"] != 0 {
			t.Fatalf("kind counters = %d ops, %d bytes; want 1 and 0",
				u.OpsByKind["sdb.BatchPutAttributes"], u.BytesByKind["sdb.BatchPutAttributes"])
		}
		if u.OpsByEndpoint["prov-3"] != 1 || u.Faults != 1 {
			t.Fatalf("endpoint ops = %d, faults = %d; want 1 and 1", u.OpsByEndpoint["prov-3"], u.Faults)
		}
		if g := env.laneGates[laneKey{g: gateSDBWrite, lane: 3}]; g == nil || g.next == 0 {
			t.Fatal("rejection did not queue at lane 3's write gate")
		}
		if env.gates[gateSDBWrite].next != 0 {
			t.Fatal("rejection queued at the default lane's write gate")
		}
	})

	t.Run("ambiguous fault applies the write and returns the error", func(t *testing.T) {
		env := NewEnv(DefaultConfig())
		env.InstallFaults(FaultPlan{"wal-0": {Prob: 1, ApplyProb: 1}})
		ep := NewEndpoint(env, "wal-0", 0)
		applies := 0
		send := func() error {
			err, applied := ep.Fault(OpSQSSend, "sqs.SendMessage", true)
			if err != nil && !applied {
				return err
			}
			ep.Charge(OpSQSSend, "sqs.SendMessage", 64)
			applies++
			return err
		}
		if err := ep.Do(send); !IsTransient(err) {
			t.Fatalf("err = %v, want the ambiguous transient fault", err)
		}
		u := env.Meter().Usage()
		if applies != 1 || u.OpsByKind["sqs.SendMessage"] != 1 || u.BytesByKind["sqs.SendMessage"] != 64 {
			t.Fatalf("applies = %d, ops = %d, bytes = %d; want one applied 64-byte send",
				applies, u.OpsByKind["sqs.SendMessage"], u.BytesByKind["sqs.SendMessage"])
		}
	})

	t.Run("retrier set after construction is used on the next call", func(t *testing.T) {
		env := NewEnv(DefaultConfig())
		ep := NewEndpoint(env, "s3", 0)
		if err := ep.Do(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		r := &countingRetrier{}
		env.SetRetrier(r)
		if err := ep.Do(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if len(r.calls) != 1 || r.calls[0] != "s3" {
			t.Fatalf("retrier calls = %v, want one for s3", r.calls)
		}
		env.SetRetrier(nil)
		if err := ep.Do(func() error { return nil }); err != nil || len(r.calls) != 1 {
			t.Fatalf("detached retrier still used: calls = %v, err = %v", r.calls, err)
		}
	})
}
