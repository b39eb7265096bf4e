package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"passcloud/internal/sim"
)

// strictStore returns a store whose reads are always fresh, for tests that
// assert exact state rather than consistency behaviour.
func strictStore(t *testing.T) *Store {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return New(sim.NewEnv(cfg))
}

// settledStore returns an eventually consistent store plus a helper that
// advances virtual time past any staleness window.
func settledStore(t *testing.T) (*Store, func()) {
	t.Helper()
	s := New(sim.NewEnv(sim.DefaultConfig()))
	return s, func() { s.Env().Clock().Advance(time.Minute) }
}

func TestPutGetRoundTrip(t *testing.T) {
	s := strictStore(t)
	meta := Metadata{"uuid": "u1", "version": "2"}
	if err := s.Put("k", []byte("hello"), meta); err != nil {
		t.Fatal(err)
	}
	o, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o.Data, []byte("hello")) {
		t.Fatalf("data = %q", o.Data)
	}
	if o.Metadata["uuid"] != "u1" || o.Metadata["version"] != "2" {
		t.Fatalf("metadata = %v", o.Metadata)
	}
}

func TestGetMissing(t *testing.T) {
	s := strictStore(t)
	if _, err := s.Get("nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("err = %v, want ErrNoSuchKey", err)
	}
}

func TestPutOverwritesLastWriterWins(t *testing.T) {
	s := strictStore(t)
	s.Put("k", []byte("one"), nil)
	s.Put("k", []byte("two"), Metadata{"v": "2"})
	o, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "two" || o.Metadata["v"] != "2" {
		t.Fatalf("got %q %v, want atomic data+metadata replacement", o.Data, o.Metadata)
	}
}

func TestMetadataIsolation(t *testing.T) {
	s := strictStore(t)
	meta := Metadata{"a": "1"}
	s.Put("k", []byte("x"), meta)
	meta["a"] = "mutated"
	o, _ := s.Get("k")
	if o.Metadata["a"] != "1" {
		t.Fatal("stored metadata aliased caller's map")
	}
	o.Metadata["a"] = "mutated-again"
	o2, _ := s.Get("k")
	if o2.Metadata["a"] != "1" {
		t.Fatal("returned metadata aliases stored state")
	}
}

func TestHead(t *testing.T) {
	s := strictStore(t)
	s.Put("k", bytes.Repeat([]byte("d"), 1000), Metadata{"uuid": "u9"})
	m, err := s.Head("k")
	if err != nil {
		t.Fatal(err)
	}
	if m["uuid"] != "u9" {
		t.Fatalf("head metadata = %v", m)
	}
	if _, err := s.Head("missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestCopySemantics(t *testing.T) {
	s := strictStore(t)
	s.Put("tmp/x", []byte("payload"), Metadata{"old": "meta"})
	// COPY with metadata replacement, as P3 uses for temp->permanent.
	if err := s.Copy("tmp/x", "perm/x", Metadata{"uuid": "u", "version": "3"}); err != nil {
		t.Fatal(err)
	}
	o, err := s.Get("perm/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "payload" || o.Metadata["version"] != "3" || o.Metadata["old"] != "" {
		t.Fatalf("copy result %q %v", o.Data, o.Metadata)
	}
	// COPY preserving metadata.
	if err := s.Copy("tmp/x", "perm/y", nil); err != nil {
		t.Fatal(err)
	}
	o, _ = s.Get("perm/y")
	if o.Metadata["old"] != "meta" {
		t.Fatalf("nil-meta copy should preserve metadata, got %v", o.Metadata)
	}
	if err := s.Copy("missing", "z", nil); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("copy of missing key: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := strictStore(t)
	s.Put("k", []byte("x"), nil)
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("delete of missing key should succeed: %v", err)
	}
}

func TestListPrefixAndPagination(t *testing.T) {
	s := strictStore(t)
	for i := 0; i < 25; i++ {
		s.Put(fmt.Sprintf("prov/%04d", i), []byte("p"), nil)
	}
	s.Put("data/obj", []byte("d"), nil)
	page, err := s.List("prov/", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Keys) != 10 || !page.IsTruncated {
		t.Fatalf("page1: %d keys truncated=%v", len(page.Keys), page.IsTruncated)
	}
	keys, reqs, err := s.ListAll("prov/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 25 {
		t.Fatalf("ListAll found %d keys, want 25", len(keys))
	}
	if reqs != 1 { // 25 < 1000 fits one full page
		t.Fatalf("ListAll used %d requests, want 1", reqs)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("LIST results not sorted")
		}
	}
}

func TestEventualConsistencyStaleReadThenConvergence(t *testing.T) {
	s, settle := settledStore(t)
	s.Put("k", []byte("v1"), nil)
	settle()
	s.Put("k", []byte("v2"), nil)
	// Immediately after the PUT some reads may see v1; count them.
	stale := 0
	for i := 0; i < 50; i++ {
		o, err := s.Get("k")
		if err == nil && string(o.Data) == "v1" {
			stale++
		}
	}
	// After the window passes, reads must always see v2.
	settle()
	for i := 0; i < 20; i++ {
		o, err := s.Get("k")
		if err != nil || string(o.Data) != "v2" {
			t.Fatalf("read after settle: %q err=%v", o.Data, err)
		}
	}
	if stale == 0 {
		t.Log("no stale reads observed (possible but unlikely); staleness engine may be off")
	}
}

func TestStrictModeNeverStale(t *testing.T) {
	s := strictStore(t)
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("v%d", i)
		s.Put("k", []byte(want), nil)
		o, err := s.Get("k")
		if err != nil || string(o.Data) != want {
			t.Fatalf("strict read %d: %q err=%v", i, o.Data, err)
		}
	}
}

func TestStorageAccounting(t *testing.T) {
	s := strictStore(t)
	s.Put("a", make([]byte, 1000), nil)
	s.Put("a", make([]byte, 400), nil) // overwrite shrinks footprint
	s.Put("b", make([]byte, 600), nil)
	if got := s.Env().Meter().Usage().Stored; got != 1000 {
		t.Fatalf("stored = %d, want 1000", got)
	}
	s.Delete("a")
	if got := s.Env().Meter().Usage().Stored; got != 600 {
		t.Fatalf("stored after delete = %d, want 600", got)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Bytes != 600 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpsAreCounted(t *testing.T) {
	s := strictStore(t)
	s.Put("k", []byte("x"), nil)
	s.Get("k")
	s.Head("k")
	s.Copy("k", "k2", nil)
	s.Delete("k2")
	s.List("", "", 0)
	u := s.Env().Meter().Usage()
	for _, kind := range []string{"s3.PUT", "s3.GET", "s3.HEAD", "s3.COPY", "s3.DELETE", "s3.LIST"} {
		if u.OpsByKind[kind] != 1 {
			t.Fatalf("%s counted %d times, want 1 (%v)", kind, u.OpsByKind[kind], u.OpsByKind)
		}
	}
}

// TestOpsCountedByEndpoint pins that S3 requests count against the "s3"
// endpoint like every other endpoint's requests, a rejected attempt
// included.
func TestOpsCountedByEndpoint(t *testing.T) {
	s := strictStore(t)
	s.Env().InstallFaults(nil).FailNextOp(Endpoint, "s3.PUT",
		&sim.TransientError{Endpoint: Endpoint, Op: "s3.PUT", Code: sim.CodeSlowDown})
	if err := s.Put("k", []byte("x"), nil); !sim.IsTransient(err) {
		t.Fatalf("put err = %v, want the forced fault (no retrier attached)", err)
	}
	s.Put("k", []byte("x"), nil)
	s.Get("k")
	s.Get("missing")
	s.Head("k")
	s.Copy("k", "k2", nil)
	s.Delete("k2")
	s.List("", "", 0)
	u := s.Env().Meter().Usage()
	if got := u.OpsByEndpoint[Endpoint]; got != 8 || got != u.TotalOps {
		t.Fatalf("OpsByEndpoint[%q] = %d, want 8 = TotalOps (%d)", Endpoint, got, u.TotalOps)
	}
}

func TestLastAccess(t *testing.T) {
	s := strictStore(t)
	s.Put("k", []byte("x"), nil)
	if _, ok := s.LastAccess("missing"); ok {
		t.Fatal("LastAccess of missing key reported ok")
	}
	t0, ok := s.LastAccess("k")
	if !ok {
		t.Fatal("LastAccess of fresh key not ok")
	}
	s.Env().Clock().Advance(time.Hour)
	s.Get("k")
	t1, _ := s.LastAccess("k")
	if t1 <= t0 {
		t.Fatalf("access time did not advance: %v -> %v", t0, t1)
	}
}

func TestPutGetQuickProperty(t *testing.T) {
	s := strictStore(t)
	f := func(key uint16, data []byte) bool {
		k := fmt.Sprintf("k%d", key)
		if err := s.Put(k, data, nil); err != nil {
			return false
		}
		o, err := s.Get(k)
		return err == nil && bytes.Equal(o.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := strictStore(t)
	if err := s.Put("", []byte("x"), nil); err == nil {
		t.Fatal("empty key accepted")
	}
}
