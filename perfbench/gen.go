package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// txn is one generated P3 transaction: a new file object with its versions,
// plus the bundle of the process that wrote it when that process is new.
type txn struct {
	obj     core.FileObject
	bundles []prov.Bundle
	key     string // obj.Ref.String(): the item whose notice makes the txn durable
}

// gen makes seeded P3 transactions whose bundle counts are heavy-tailed and
// whose ancestry is shared: processes write several files, and new files
// read recent ones.
type gen struct {
	rnd    *sim.Rand
	prefix string
	pad    string
	alpha  float64 // Pareto exponent of versions per file: smaller is heavier

	procs []prov.Ref // processes, newest last
	files []prov.Ref // latest version of every generated file, newest last

	objects map[uuid.UUID][]prov.Bundle // every generated bundle, by object
	order   []uuid.UUID                 // objects in generation order
	nodes   int                         // generated bundles, one item each
}

func newGen(rnd *sim.Rand, prefix string, alpha float64) *gen {
	return &gen{
		rnd:     rnd,
		prefix:  prefix,
		alpha:   alpha,
		pad:     strings.Repeat("e", 200),
		objects: make(map[uuid.UUID][]prov.Bundle),
	}
}

// pareto draws an integer from a Pareto tail with exponent alpha, at least
// 1 and at most limit.
func (g *gen) pareto(alpha float64, limit int) int {
	u := g.rnd.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	k := int(math.Pow(u, -1/alpha))
	return min(max(k, 1), limit)
}

// recent picks one of the newest entries of refs, biased towards the end.
func (g *gen) recent(refs []prov.Ref) prov.Ref {
	back := g.pareto(1.1, len(refs)) - 1
	return refs[len(refs)-1-back]
}

func (g *gen) record(b prov.Bundle) {
	if _, ok := g.objects[b.Ref.UUID]; !ok {
		g.order = append(g.order, b.Ref.UUID)
	}
	g.objects[b.Ref.UUID] = append(g.objects[b.Ref.UUID], b)
	g.nodes++
}

// next makes the next transaction.
func (g *gen) next() txn {
	var bundles []prov.Bundle
	var proc prov.Ref
	if len(g.procs) == 0 || g.rnd.Bool(0.3) {
		proc = prov.Ref{UUID: uuid.New(g.rnd), Version: 1}
		name := fmt.Sprintf("prog%02d", g.pareto(1.2, 24))
		b := prov.Bundle{Ref: proc, Type: prov.Process, Name: name, Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: name},
			{Attr: prov.AttrArgv, Value: name + " -o " + g.prefix},
			{Attr: prov.AttrEnv, Value: g.pad},
		}}
		g.record(b)
		bundles = append(bundles, b)
		g.procs = append(g.procs, proc)
	} else {
		proc = g.recent(g.procs)
	}

	n := len(g.files)
	path := fmt.Sprintf("mnt/%s/%06d", g.prefix, n)
	file := uuid.New(g.rnd)
	var inputs []prov.Ref
	// Most files read nothing the workload wrote; some read one or two
	// recent files, so ancestry is shared but closures stay bounded.
	k := 0
	if u := g.rnd.Float64(); u < 0.05 {
		k = 2
	} else if u < 0.35 {
		k = 1
	}
	for ; k > 0 && len(g.files) > 0; k-- {
		in := g.recent(g.files)
		if !containsRef(inputs, in) {
			inputs = append(inputs, in)
		}
	}
	versions := g.pareto(g.alpha, 12)
	var last prov.Ref
	for v := 1; v <= versions; v++ {
		ref := prov.Ref{UUID: file, Version: v}
		recs := []prov.Record{
			{Attr: prov.AttrType, Value: "file"},
			{Attr: prov.AttrName, Value: path},
			{Attr: prov.AttrInput, Xref: proc},
			{Attr: prov.AttrEnv, Value: g.pad},
		}
		if v == 1 {
			for _, in := range inputs {
				recs = append(recs, prov.Record{Attr: prov.AttrInput, Xref: in})
			}
		} else {
			recs = append(recs, prov.Record{Attr: prov.AttrPrevVer, Xref: last})
		}
		b := prov.Bundle{Ref: ref, Type: prov.File, Name: path, Records: recs}
		g.record(b)
		bundles = append(bundles, b)
		last = ref
	}
	g.files = append(g.files, last)
	size := int64(8<<10) * int64(g.pareto(1.2, 32))
	return txn{
		obj:     core.FileObject{Path: path, Size: size, Ref: last},
		bundles: bundles,
		key:     last.String(),
	}
}

// poissonDues returns n arrival offsets of a Poisson process at rate per
// simulated second, drawn from rnd.
func poissonDues(rnd *sim.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t time.Duration
	mean := time.Duration(float64(time.Second) / rate)
	for i := range out {
		t += rnd.Exp(mean)
		out[i] = t
	}
	return out
}

func containsRef(refs []prov.Ref, r prov.Ref) bool {
	for _, x := range refs {
		if x == r {
			return true
		}
	}
	return false
}

// canonical renders bundles independently of record order, so generated
// bundles and bundles read back from the database compare equal exactly
// when they carry the same facts.
func canonical(bundles []prov.Bundle) string {
	bs := append([]prov.Bundle(nil), bundles...)
	sort.Slice(bs, func(i, j int) bool { return bs[i].Ref.Version < bs[j].Ref.Version })
	var sb strings.Builder
	for _, b := range bs {
		recs := make([]string, len(b.Records))
		for i, r := range b.Records {
			if r.IsXref() {
				recs[i] = r.Attr + ">" + r.Xref.String()
			} else {
				recs[i] = r.Attr + "=" + r.Value
			}
		}
		sort.Strings(recs)
		fmt.Fprintf(&sb, "%s|%s|%s|%s\n", b.Ref, b.Type, b.Name, strings.Join(recs, ";"))
	}
	return sb.String()
}

// digestGenerated hashes every generated object's bundles.
func (g *gen) digestGenerated() string {
	h := sha256.New()
	for _, u := range g.order {
		h.Write([]byte(canonical(g.objects[u])))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestStored hashes every generated object's bundles as read back from
// the fabric's database.
func (g *gen) digestStored(dep *core.Deployment) (string, error) {
	h := sha256.New()
	for _, u := range g.order {
		bs, err := core.ReadProvenance(dep, core.BackendSDB, u)
		if err != nil {
			return "", fmt.Errorf("read-back of %s: %w", u, err)
		}
		h.Write([]byte(canonical(bs)))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// items counts the provenance items the generated transactions write.
func (g *gen) items() int { return g.nodes }
