package sdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"passcloud/internal/resilient"
	"passcloud/internal/sim"
)

func strictDomain(t *testing.T) *Domain {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Strict
	return New(sim.NewEnv(cfg), "prov")
}

func TestPutGetAttributes(t *testing.T) {
	d := strictDomain(t)
	err := d.PutAttributes(PutRequest{Item: "uuid1_2", Attrs: []Attr{
		{Name: "name", Value: "foo"},
		{Name: "input", Value: "bar_2"},
		{Name: "type", Value: "file"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	it, err := d.GetAttributes("uuid1_2")
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Attrs) != 3 {
		t.Fatalf("attrs = %v", it.Attrs)
	}
}

func TestGetMissingItem(t *testing.T) {
	d := strictDomain(t)
	if _, err := d.GetAttributes("nope"); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiValuedAttributes(t *testing.T) {
	d := strictDomain(t)
	// SimpleDB default put appends: an item may carry two attributes with
	// the same name (the paper's example: two "phone" attributes).
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "input", Value: "a_1"}}})
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "input", Value: "b_3"}}})
	it, _ := d.GetAttributes("i")
	var vals []string
	for _, a := range it.Attrs {
		if a.Name == "input" {
			vals = append(vals, a.Value)
		}
	}
	if len(vals) != 2 {
		t.Fatalf("input values = %v, want both", vals)
	}
}

func TestReplaceSemantics(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "v", Value: "old"}, {Name: "keep", Value: "k"}}})
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "v", Value: "new"}}, Replace: true})
	it, _ := d.GetAttributes("i")
	var vVals, keepVals int
	for _, a := range it.Attrs {
		switch a.Name {
		case "v":
			vVals++
			if a.Value != "new" {
				t.Fatalf("v = %q after replace", a.Value)
			}
		case "keep":
			keepVals++
		}
	}
	if vVals != 1 || keepVals != 1 {
		t.Fatalf("v×%d keep×%d, want 1 and 1", vVals, keepVals)
	}
}

func TestValueLimit(t *testing.T) {
	d := strictDomain(t)
	big := strings.Repeat("x", MaxValueLen+1)
	err := d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: big}}})
	if !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("err = %v, want ErrValueTooLong", err)
	}
	ok := strings.Repeat("x", MaxValueLen)
	if err := d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: ok}}}); err != nil {
		t.Fatalf("exactly 1KB rejected: %v", err)
	}
}

func TestBatchLimit(t *testing.T) {
	d := strictDomain(t)
	reqs := make([]PutRequest, MaxBatchItems+1)
	for i := range reqs {
		reqs[i] = PutRequest{Item: fmt.Sprintf("i%d", i), Attrs: []Attr{{Name: "a", Value: "v"}}}
	}
	if err := d.BatchPutAttributes(reqs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if err := d.BatchPutAttributes(reqs[:MaxBatchItems]); err != nil {
		t.Fatal(err)
	}
	if n := d.ItemCount(); n != MaxBatchItems {
		t.Fatalf("item count = %d", n)
	}
}

func TestBatchCostsMoreThanSinglePutButLessThanNSingles(t *testing.T) {
	single := strictDomain(t)
	batch := strictDomain(t)
	reqs := make([]PutRequest, 25)
	for i := range reqs {
		reqs[i] = PutRequest{Item: fmt.Sprintf("i%d", i), Attrs: []Attr{{Name: "a", Value: "v"}}}
	}
	for _, r := range reqs {
		single.PutAttributes(r)
	}
	batch.BatchPutAttributes(reqs)
	ts, tb := single.Env().Now(), batch.Env().Now()
	if tb >= ts {
		t.Fatalf("batch (%v) should beat 25 singles (%v)", tb, ts)
	}
}

func TestSelectBasic(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "u1_1", Attrs: []Attr{{Name: "name", Value: "out.dat"}, {Name: "type", Value: "file"}}})
	d.PutAttributes(PutRequest{Item: "u2_1", Attrs: []Attr{{Name: "name", Value: "blast"}, {Name: "type", Value: "proc"}}})
	items, reqs, _, err := d.SelectAll("select * from prov where type = 'proc'")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Name != "u2_1" {
		t.Fatalf("items = %v", items)
	}
	if reqs != 1 {
		t.Fatalf("requests = %d", reqs)
	}
}

func TestSelectStar(t *testing.T) {
	d := strictDomain(t)
	for i := 0; i < 10; i++ {
		d.PutAttributes(PutRequest{Item: fmt.Sprintf("i%02d", i), Attrs: []Attr{{Name: "n", Value: fmt.Sprint(i)}}})
	}
	items, _, bytes, err := d.SelectAll("select * from prov")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 || bytes <= 0 {
		t.Fatalf("items=%d bytes=%d", len(items), bytes)
	}
}

func TestSelectOperatorsAndBoolean(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "a", Attrs: []Attr{{Name: "v", Value: "3"}, {Name: "type", Value: "file"}}})
	d.PutAttributes(PutRequest{Item: "b", Attrs: []Attr{{Name: "v", Value: "7"}, {Name: "type", Value: "proc"}}})
	d.PutAttributes(PutRequest{Item: "c", Attrs: []Attr{{Name: "type", Value: "pipe"}}})
	cases := []struct {
		expr string
		want int
	}{
		{"select * from prov where v != '3'", 1}, // b; c has no v
		{"select * from prov where v >= '3'", 2},
		{"select * from prov where type = 'file' or type = 'proc'", 2},
		{"select * from prov where type = 'proc' and v = '7'", 1},
		{"select * from prov where (type = 'file' or type = 'pipe') and v is null", 1},
		{"select * from prov where v is not null", 2},
		{"select * from prov where type like 'p%'", 2},
		{"select * from prov where itemName() = 'a'", 1},
	}
	for _, c := range cases {
		items, _, _, err := d.SelectAll(c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if len(items) != c.want {
			t.Fatalf("%s: got %d items, want %d", c.expr, len(items), c.want)
		}
	}
	// LIMIT caps one response; the NextToken continues (SimpleDB semantics).
	page, err := d.Select("select * from prov limit 2", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 2 || page.NextToken == "" {
		t.Fatalf("limit page: %d items, token %q", len(page.Items), page.NextToken)
	}
}

func TestSelectProjection(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "name", Value: "f"}, {Name: "other", Value: "x"}}})
	items, _, _, err := d.SelectAll("select name from prov")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || len(items[0].Attrs) != 1 || items[0].Attrs[0].Name != "name" {
		t.Fatalf("projection result %v", items)
	}
	items, _, _, _ = d.SelectAll("select itemName() from prov")
	if len(items) != 1 || len(items[0].Attrs) != 0 {
		t.Fatalf("itemName() result %v", items)
	}
}

func TestSelectPagination(t *testing.T) {
	d := strictDomain(t)
	for i := 0; i < 30; i++ {
		d.PutAttributes(PutRequest{Item: fmt.Sprintf("i%03d", i), Attrs: []Attr{{Name: "a", Value: "v"}}})
	}
	page, err := d.Select("select * from prov limit 10", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 10 || page.NextToken == "" {
		t.Fatalf("page: %d items token=%q", len(page.Items), page.NextToken)
	}
	page2, err := d.Select("select * from prov limit 10", page.NextToken)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Items) != 10 || page2.Items[0].Name <= page.Items[len(page.Items)-1].Name {
		t.Fatalf("page2 did not continue: %v", page2.Items[0].Name)
	}
}

func TestSelectWrongDomain(t *testing.T) {
	d := strictDomain(t)
	if _, err := d.Select("select * from other", ""); err == nil {
		t.Fatal("wrong domain accepted")
	}
}

func TestSelectParseErrors(t *testing.T) {
	for _, expr := range []string{
		"", "select", "select * from", "select * from prov where",
		"select * from prov where a ~ 'x'", "select * from prov where a = unquoted",
		"select * from prov where (a = 'x'", "select * from prov trailing",
		"select * from prov limit abc",
	} {
		if _, err := ParseSelect(expr); err == nil {
			t.Fatalf("ParseSelect(%q) succeeded", expr)
		}
	}
}

func TestSelectQuoteEscape(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "cmd", Value: "it's"}}})
	items, _, _, err := d.SelectAll("select * from prov where cmd = 'it''s'")
	if err != nil || len(items) != 1 {
		t.Fatalf("escaped quote: items=%v err=%v", items, err)
	}
}

func TestDeleteAttributes(t *testing.T) {
	d := strictDomain(t)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: "v"}}})
	if err := d.DeleteAttributes("i"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetAttributes("i"); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("get after delete: %v", err)
	}
	if n := d.ItemCount(); n != 0 {
		t.Fatalf("count = %d", n)
	}
}

func TestEventualConsistencyConverges(t *testing.T) {
	d := New(sim.NewEnv(sim.DefaultConfig()), "prov")
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "version", Value: "1"}}})
	d.Env().Clock().Advance(time.Minute)
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "version", Value: "2"}}, Replace: true})
	d.Env().Clock().Advance(time.Minute)
	it, err := d.GetAttributes("i")
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Attrs) != 1 || it.Attrs[0].Value != "2" {
		t.Fatalf("settled read = %v", it.Attrs)
	}
}

func TestSelectObservesEventualConsistency(t *testing.T) {
	// A select right after a put may miss the item; after settling it must
	// always appear.
	d := New(sim.NewEnv(sim.DefaultConfig()), "prov")
	d.PutAttributes(PutRequest{Item: "i", Attrs: []Attr{{Name: "a", Value: "v"}}})
	d.Env().Clock().Advance(time.Minute)
	items, _, _, err := d.SelectAll("select * from prov")
	if err != nil || len(items) != 1 {
		t.Fatalf("settled select: %v err=%v", items, err)
	}
}

// fillDomain writes n single-attribute items named i00..i(n-1) in batches.
func fillDomain(t *testing.T, d *Domain, n int) []string {
	t.Helper()
	names := make([]string, n)
	reqs := make([]PutRequest, n)
	for i := range reqs {
		names[i] = fmt.Sprintf("i%02d", i)
		reqs[i] = PutRequest{Item: names[i], Attrs: []Attr{{Name: "a", Value: "v"}}}
	}
	for start := 0; start < n; start += MaxBatchItems {
		end := min(start+MaxBatchItems, n)
		if err := d.BatchPutAttributes(reqs[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func TestBatchDeleteLimit(t *testing.T) {
	d := strictDomain(t)
	names := fillDomain(t, d, MaxBatchItems+1)
	before := d.Env().Meter().Usage()
	if err := d.BatchDeleteAttributes(names); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	after := d.Env().Meter().Usage()
	if after.TotalOps != before.TotalOps || after.Requests[sim.CostSDB] != before.Requests[sim.CostSDB] {
		t.Fatalf("rejected batch billed %d ops", after.TotalOps-before.TotalOps)
	}
	if n := d.ItemCount(); n != MaxBatchItems+1 {
		t.Fatalf("item count = %d after a rejected batch", n)
	}
}

// TestBatchDeleteOneRequest pins a full batch delete to one billed request on
// the BatchPut latency curve, with the items gone from consistent reads.
func TestBatchDeleteOneRequest(t *testing.T) {
	d := strictDomain(t)
	names := fillDomain(t, d, MaxBatchItems+3)
	env := d.Env()
	env.Clock().Advance(time.Minute) // let the write gate idle
	before := env.Meter().Usage()
	t0 := env.Now()
	if err := d.BatchDeleteAttributes(names[:MaxBatchItems]); err != nil {
		t.Fatal(err)
	}
	elapsed := env.Now() - t0
	after := env.Meter().Usage()
	if got := after.Requests[sim.CostSDB] - before.Requests[sim.CostSDB]; got != 1 {
		t.Fatalf("billed requests = %d, want 1", got)
	}
	if got := after.OpsByKind["sdb.BatchDeleteAttributes"] - before.OpsByKind["sdb.BatchDeleteAttributes"]; got != 1 {
		t.Fatalf("sdb.BatchDeleteAttributes ops = %d, want 1", got)
	}
	if after.OpsByKind["sdb.DeleteAttributes"] != 0 || after.BytesIn != before.BytesIn {
		t.Fatalf("batch delete charged single deletes (%d) or transfer (%d B)",
			after.OpsByKind["sdb.DeleteAttributes"], after.BytesIn-before.BytesIn)
	}
	m := env.Model()
	base, items := m.SDBBatchBase, m.BatchItemLatency(MaxBatchItems)
	lo, hi := base*96/100+items, base*104/100+items
	if elapsed < lo || elapsed > hi {
		t.Fatalf("elapsed %v, want BatchPut curve %v..%v", elapsed, lo, hi)
	}
	if n := d.ItemCount(); n != 3 {
		t.Fatalf("item count = %d, want 3", n)
	}
	got, _, _, err := d.SelectAllQuery(Query{Domain: d.Name(), Consistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Name != names[MaxBatchItems] {
		t.Fatalf("consistent select after delete = %d items (%v)", len(got), got)
	}
	if _, err := d.GetAttributes(names[0]); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("get after batch delete: %v", err)
	}
}

func TestBatchDeleteAbsentNamesNoOp(t *testing.T) {
	d := strictDomain(t)
	names := fillDomain(t, d, 2)
	if err := d.BatchDeleteAttributes([]string{"nope", names[0], "gone"}); err != nil {
		t.Fatal(err)
	}
	if n := d.ItemCount(); n != 1 {
		t.Fatalf("item count = %d, want 1", n)
	}
	if _, err := d.GetAttributes(names[1]); err != nil {
		t.Fatalf("surviving item: %v", err)
	}
	// A batch of nothing but absent names still succeeds and bills one call.
	before := d.Env().Meter().Usage().OpsByKind["sdb.BatchDeleteAttributes"]
	if err := d.BatchDeleteAttributes([]string{"nope", names[0]}); err != nil {
		t.Fatal(err)
	}
	if got := d.Env().Meter().Usage().OpsByKind["sdb.BatchDeleteAttributes"] - before; got != 1 {
		t.Fatalf("ops = %d, want 1", got)
	}
	if n := d.ItemCount(); n != 1 {
		t.Fatalf("item count = %d after no-op batch, want 1", n)
	}
}

// TestBatchDeleteAmbiguousFaultRetries applies a batch under an ambiguous
// (applied but reported failed) fault: the resilient client retries the
// already-applied batch, and the retry converges to nil.
func TestBatchDeleteAmbiguousFaultRetries(t *testing.T) {
	d := strictDomain(t)
	names := fillDomain(t, d, MaxBatchItems)
	env := d.Env()
	env.SetRetrier(resilient.New(env, resilient.Policy{}))
	// Only the first attempt lands inside the fault window.
	env.InstallFaults(sim.FaultPlan{d.Name(): {
		Prob: 1, ApplyProb: 1, Ops: []string{"sdb.BatchDeleteAttributes"},
		Until: env.Now() + time.Millisecond,
	}})
	if err := d.BatchDeleteAttributes(names); err != nil {
		t.Fatalf("batch delete under an ambiguous fault: %v", err)
	}
	u := env.Meter().Usage()
	if u.Faults != 1 || u.OpsByKind["sdb.BatchDeleteAttributes"] != 2 {
		t.Fatalf("faults = %d, batch deletes = %d, want 1 fault and 1 retry",
			u.Faults, u.OpsByKind["sdb.BatchDeleteAttributes"])
	}
	if n := d.ItemCount(); n != 0 {
		t.Fatalf("item count = %d, want 0", n)
	}

	// Without retries the same fault surfaces, yet the batch was applied.
	names = fillDomain(t, d, 3)
	env.SetRetrier(resilient.New(env, resilient.Policy{MaxAttempts: 1}))
	env.InstallFaults(sim.FaultPlan{d.Name(): {
		Prob: 1, ApplyProb: 1, Ops: []string{"sdb.BatchDeleteAttributes"},
		Until: env.Now() + time.Millisecond,
	}})
	if err := d.BatchDeleteAttributes(names); !sim.IsTransient(err) {
		t.Fatalf("single attempt err = %v, want the transient fault", err)
	}
	if n := d.ItemCount(); n != 0 {
		t.Fatalf("item count = %d after an applied fault, want 0", n)
	}
}

// TestSettledAtCoversEveryWrite pins the visibility horizon a live reshard
// waits on before cutover: after puts, batch puts and batch deletes,
// SettledAt is at or past every applied version's visibleAt, so an
// eventually consistent read at SettledAt observes every write; under
// strict consistency it never runs ahead of the clock.
func TestSettledAtCoversEveryWrite(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Consistency = sim.Eventual
	cfg.StalenessMean = time.Minute // windows far longer than a request
	d := New(sim.NewEnv(cfg), "prov")
	covered := func(step string) {
		t.Helper()
		settled := d.SettledAt()
		d.mu.Lock()
		defer d.mu.Unlock()
		for name, hist := range d.items {
			for _, v := range hist {
				if v.visibleAt > settled {
					t.Fatalf("%s: %s visible at %v, past SettledAt %v", step, name, v.visibleAt, settled)
				}
			}
		}
	}
	if err := d.PutAttributes(PutRequest{Item: "solo", Attrs: []Attr{{Name: "a", Value: "v"}}}); err != nil {
		t.Fatal(err)
	}
	covered("PutAttributes")
	names := fillDomain(t, d, 200)
	covered("BatchPutAttributes")
	d.Env().Clock().SleepUntil(d.SettledAt())
	for _, name := range names {
		if _, err := d.GetAttributes(name); err != nil {
			t.Fatalf("read of %s at SettledAt: %v", name, err)
		}
	}

	// Tombstones written after the puts settled must raise the horizon.
	deleted := names[:MaxBatchItems]
	if err := d.BatchDeleteAttributes(deleted); err != nil {
		t.Fatal(err)
	}
	covered("BatchDeleteAttributes")
	d.Env().Clock().SleepUntil(d.SettledAt())
	for _, name := range deleted {
		if _, err := d.GetAttributes(name); !errors.Is(err, ErrNoSuchItem) {
			t.Fatalf("read of deleted %s at SettledAt: err = %v", name, err)
		}
	}

	s := strictDomain(t)
	names = fillDomain(t, s, 60)
	if err := s.PutAttributes(PutRequest{Item: "solo", Attrs: []Attr{{Name: "a", Value: "v"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.BatchDeleteAttributes(names[:10]); err != nil {
		t.Fatal(err)
	}
	if got, now := s.SettledAt(), s.Env().Now(); got > now {
		t.Fatalf("strict SettledAt %v is past Now %v", got, now)
	}
}
