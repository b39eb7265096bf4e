// Package pass implements the provenance collection substrate: the role the
// PASS kernel plays in the paper. The collector observes a system-call
// trace, builds the provenance DAG, and hands per-object provenance bundles
// to the storage layer on close/flush.
//
// Versioning follows the causality-based scheme of PASS: every version of a
// file or process is a distinct DAG node, and a new version is created
// exactly when adding a dependency edge would otherwise close a cycle
// (a process that read a file then writes it produces a new file version
// that depends on both the process and the previous file version). The
// resulting graph is acyclic by construction, which internal/prov can check.
package pass

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"passcloud/internal/prov"
	"passcloud/internal/trace"
	"passcloud/internal/uuid"
)

// objectState tracks the live head version of one file/pipe/process.
type objectState struct {
	ref     prov.Ref // current version
	typ     prov.ObjectType
	name    string
	size    int64 // current logical size (files)
	removed bool
}

// Collector turns trace events into a provenance graph. It also plays the
// role of the client-side provenance cache: bundles accumulate in memory
// until the storage layer takes them at close/flush time.
//
// The per-close work is kept incremental: the collector maintains, as edges
// and nodes are added, a per-node dependency-edge set (O(1) duplicate-edge
// checks on the hot read/write path), a per-node parent list pre-sorted in
// the canonical ref-string order (no re-sort per closure visit), and a
// per-object list of dirty — created but not yet recorded — versions (the
// roots of PendingFor without re-scanning the version range). Closure walks
// are iterative, so arbitrarily deep version chains cannot blow the stack.
type Collector struct {
	src   uuid.Source
	graph *prov.Graph

	procs map[int]*objectState
	files map[string]*objectState

	// recorded marks node versions already handed to (and accepted by) the
	// storage layer; everything else is dirty client-side state.
	recorded map[prov.Ref]bool

	// edges is the dependency-edge set of each node: every xref the node
	// carries, regardless of attribute. It answers hasInput in O(1).
	edges map[prov.Ref]map[prov.Ref]bool

	// parents caches each node's parent refs, sorted lazily into the
	// canonical ref-string order the closure walks visit them in: inserts
	// are O(1) appends that clear the sorted flag, and a node re-sorts at
	// most once per closure since its last new edge — so a high-fan-in
	// node (a process reading thousands of files) stays linear per event.
	parents map[prov.Ref]*parentList

	// dirty lists the unrecorded versions of each object, oldest first
	// (versions are created in ascending order); PendingFor reads its roots
	// here and compacts recorded entries out lazily.
	dirty map[uuid.UUID][]prov.Ref

	clock func() time.Duration // start-time attribution for processes
}

// New returns an empty collector drawing uuids from src. The optional clock
// supplies process start times; nil uses a monotonic counter.
func New(src uuid.Source, clock func() time.Duration) *Collector {
	c := &Collector{
		src:      src,
		graph:    prov.NewGraph(),
		procs:    make(map[int]*objectState),
		files:    make(map[string]*objectState),
		recorded: make(map[prov.Ref]bool),
		edges:    make(map[prov.Ref]map[prov.Ref]bool),
		parents:  make(map[prov.Ref]*parentList),
		dirty:    make(map[uuid.UUID][]prov.Ref),
		clock:    clock,
	}
	if c.clock == nil {
		var tick time.Duration
		c.clock = func() time.Duration { tick += time.Millisecond; return tick }
	}
	return c
}

// Graph exposes the collected DAG (read-only by convention).
func (c *Collector) Graph() *prov.Graph { return c.graph }

// FileRef returns the current version ref of path, if the file exists.
func (c *Collector) FileRef(path string) (prov.Ref, bool) {
	st, ok := c.files[path]
	if !ok || st.removed {
		return prov.Ref{}, false
	}
	return st.ref, true
}

// FileSize returns the current logical size of path.
func (c *Collector) FileSize(path string) int64 {
	if st, ok := c.files[path]; ok {
		return st.size
	}
	return 0
}

// ProcRef returns the current version ref of pid's process node.
func (c *Collector) ProcRef(pid int) (prov.Ref, bool) {
	st, ok := c.procs[pid]
	if !ok {
		return prov.Ref{}, false
	}
	return st.ref, true
}

// Apply feeds one event into the collector.
func (c *Collector) Apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.Exec:
		c.exec(ev)
	case trace.Fork:
		c.fork(ev)
	case trace.Exit:
		// Process nodes persist in the DAG; nothing to do.
	case trace.Read:
		c.read(ev.PID, ev.Path)
	case trace.Write:
		c.write(ev.PID, ev.Path, ev.Bytes)
	case trace.MkPipe:
		c.mkpipe(ev.PID, ev.Path)
	case trace.Unlink:
		c.unlink(ev.Path)
	case trace.Close, trace.Flush, trace.Compute:
		// Close/flush are storage-layer triggers; compute is time only.
	default:
		return fmt.Errorf("pass: unknown event kind %v", ev.Kind)
	}
	return nil
}

// newNode allocates and inserts a fresh node version, marking it dirty.
func (c *Collector) newNode(u uuid.UUID, version int, typ prov.ObjectType, name string) *prov.Node {
	n := &prov.Node{Ref: prov.Ref{UUID: u, Version: version}, Type: typ, Name: name}
	n.Records = append(n.Records, prov.Record{Attr: prov.AttrType, Value: typ.String()})
	if name != "" {
		n.Records = append(n.Records, prov.Record{Attr: prov.AttrName, Value: name})
	}
	if err := c.graph.Add(n); err != nil {
		// Version allocation is internal; a collision is a bug.
		panic(err)
	}
	c.dirty[u] = append(c.dirty[u], n.Ref)
	return n
}

// addXref records one dependency edge in the graph and in the collector's
// incremental edge set and sorted-parent cache.
func (c *Collector) addXref(from prov.Ref, attr string, to prov.Ref) {
	if err := c.graph.AddRecord(from, prov.Record{Attr: attr, Xref: to}); err != nil {
		// Edges are only added to nodes the collector created; a miss is a bug.
		panic(err)
	}
	es := c.edges[from]
	if es == nil {
		es = make(map[prov.Ref]bool, 4)
		c.edges[from] = es
	}
	if es[to] {
		// A second edge to the same parent under a different attribute
		// (e.g. execfile plus prev) changes no closure order.
		return
	}
	es[to] = true
	pl := c.parents[from]
	if pl == nil {
		pl = &parentList{}
		c.parents[from] = pl
	}
	pl.refs = append(pl.refs, to)
	pl.sorted = len(pl.refs) == 1
}

// parentList is one node's parent refs plus a lazily-maintained sort flag.
type parentList struct {
	refs   []prov.Ref
	sorted bool
}

// sortedParents returns a node's parents in canonical ref-string order,
// sorting on first use after an insert.
func (c *Collector) sortedParents(r prov.Ref) []prov.Ref {
	pl := c.parents[r]
	if pl == nil {
		return nil
	}
	if !pl.sorted {
		sort.Slice(pl.refs, func(i, j int) bool { return refStringLess(pl.refs[i], pl.refs[j]) })
		pl.sorted = true
	}
	return pl.refs
}

// refStringLess orders refs exactly as comparing their String() forms
// would — the uuid's hex rendering preserves byte order and both strings
// share the dash layout, so only a same-uuid tie needs the rendered
// decimal version suffixes — without allocating for the common case.
func refStringLess(a, b prov.Ref) bool {
	for i := range a.UUID {
		if a.UUID[i] != b.UUID[i] {
			return a.UUID[i] < b.UUID[i]
		}
	}
	if a.Version == b.Version {
		return false
	}
	return strconv.Itoa(a.Version) < strconv.Itoa(b.Version)
}

// exec creates (or re-versions) the process node for pid with the full
// attribute set PASS records: argv, environment, pid, start time, binary.
func (c *Collector) exec(ev trace.Event) {
	st, ok := c.procs[ev.PID]
	if !ok {
		st = &objectState{typ: prov.Process}
		c.procs[ev.PID] = st
		st.ref = prov.Ref{UUID: uuid.New(c.src), Version: 0}
	}
	name := ev.Path
	if len(ev.Argv) > 0 {
		name = ev.Argv[0]
	}
	prevRef := st.ref
	st.ref = prov.Ref{UUID: st.ref.UUID, Version: st.ref.Version + 1}
	st.name = name
	n := c.newNode(st.ref.UUID, st.ref.Version, prov.Process, name)
	if prevRef.Version > 0 {
		c.addXref(st.ref, prov.AttrPrevVer, prevRef)
	}
	n.Records = append(n.Records,
		prov.Record{Attr: prov.AttrPID, Value: fmt.Sprint(ev.PID)},
		prov.Record{Attr: prov.AttrStartTime, Value: c.clock().String()},
	)
	for _, a := range ev.Argv {
		n.Records = append(n.Records, prov.Record{Attr: prov.AttrArgv, Value: a})
	}
	for _, e := range ev.Env {
		n.Records = append(n.Records, prov.Record{Attr: prov.AttrEnv, Value: e})
	}
	// The executed binary is an input if it is a tracked file.
	if bin, ok := c.files[ev.Path]; ok && !bin.removed {
		c.addXref(st.ref, prov.AttrExecFile, bin.ref)
	}
}

// fork records the parent reference on the child's process node. The child
// node proper appears at its exec; if the child never execs, a bare process
// node is created here.
func (c *Collector) fork(ev trace.Event) {
	parent, ok := c.procs[ev.PID]
	if !ok {
		c.exec(trace.Event{Kind: trace.Exec, PID: ev.PID, Path: "unknown"})
		parent = c.procs[ev.PID]
	}
	child := &objectState{typ: prov.Process, ref: prov.Ref{UUID: uuid.New(c.src), Version: 1}, name: parent.name}
	c.procs[ev.Child] = child
	n := c.newNode(child.ref.UUID, 1, prov.Process, parent.name)
	n.Records = append(n.Records, prov.Record{Attr: prov.AttrPID, Value: fmt.Sprint(ev.Child)})
	c.addXref(child.ref, prov.AttrForkParent, parent.ref)
}

// fileState returns (creating on demand) the state for path.
func (c *Collector) fileState(path string, typ prov.ObjectType) *objectState {
	st, ok := c.files[path]
	if !ok || st.removed {
		st = &objectState{typ: typ, name: path, ref: prov.Ref{UUID: uuid.New(c.src), Version: 1}}
		c.files[path] = st
		c.newNode(st.ref.UUID, 1, typ, path)
	}
	return st
}

// procState returns (creating on demand) the process state for pid.
func (c *Collector) procState(pid int) *objectState {
	st, ok := c.procs[pid]
	if !ok {
		c.exec(trace.Event{Kind: trace.Exec, PID: pid, Path: "unknown"})
		st = c.procs[pid]
	}
	return st
}

// read records "process depends on file": an INPUT edge from the process
// node to the file's current version. If the file's current version already
// depends on this process version (the process wrote it earlier), adding the
// edge would close a cycle, so the process is re-versioned first — the
// causality-based versioning algorithm.
func (c *Collector) read(pid int, path string) {
	p := c.procState(pid)
	f := c.fileState(path, typeForPath(path))
	if c.hasInput(p.ref, f.ref) {
		return // duplicate edge; PASS deduplicates repeated reads
	}
	if c.graph.Reachable(f.ref, p.ref) {
		c.bumpProc(p)
	}
	c.addXref(p.ref, prov.AttrInput, f.ref)
}

// write records "file depends on process". If the process already depends on
// the file's current version (it read the file earlier), the file is
// re-versioned: the new version depends on both the writing process and the
// previous file version.
func (c *Collector) write(pid int, path string, n int64) {
	p := c.procState(pid)
	f := c.fileState(path, typeForPath(path))
	f.size += n
	if c.hasInput(f.ref, p.ref) {
		return // this process version already recorded as writer
	}
	if c.graph.Reachable(p.ref, f.ref) {
		c.bumpFile(f)
	}
	c.addXref(f.ref, prov.AttrInput, p.ref)
}

// bumpProc creates the next version node of a process.
func (c *Collector) bumpProc(p *objectState) {
	prev := p.ref
	p.ref = prov.Ref{UUID: prev.UUID, Version: prev.Version + 1}
	c.newNode(p.ref.UUID, p.ref.Version, prov.Process, p.name)
	c.addXref(p.ref, prov.AttrPrevVer, prev)
}

// bumpFile creates the next version node of a file or pipe.
func (c *Collector) bumpFile(f *objectState) {
	prev := f.ref
	f.ref = prov.Ref{UUID: prev.UUID, Version: prev.Version + 1}
	c.newNode(f.ref.UUID, f.ref.Version, f.typ, f.name)
	c.addXref(f.ref, prov.AttrPrevVer, prev)
}

// hasInput reports whether from already carries a dependency edge to to. It
// answers from the incremental edge set in O(1); the seed implementation
// scanned every record of the node per read/write event, which dominated
// collection time on large traces.
func (c *Collector) hasInput(from, to prov.Ref) bool {
	return c.edges[from][to]
}

// mkpipe creates a pipe node (pipes have no name attribute in PASS; the
// path is only the collector's handle).
func (c *Collector) mkpipe(pid int, path string) {
	st := &objectState{typ: prov.Pipe, ref: prov.Ref{UUID: uuid.New(c.src), Version: 1}}
	c.files[path] = st
	c.newNode(st.ref.UUID, 1, prov.Pipe, "")
	_ = pid
}

// unlink marks the file removed. Its provenance nodes remain in the graph —
// data-independent persistence.
func (c *Collector) unlink(path string) {
	if st, ok := c.files[path]; ok {
		st.removed = true
	}
}

// typeForPath distinguishes pipes (created via MkPipe, read/written by
// their handle) from regular files.
func typeForPath(path string) prov.ObjectType {
	if len(path) > 5 && path[:5] == "pipe:" {
		return prov.Pipe
	}
	return prov.File
}

// MarkRecorded notes that the storage layer has durably recorded these node
// versions; they will not be bundled again.
func (c *Collector) MarkRecorded(refs ...prov.Ref) {
	for _, r := range refs {
		c.recorded[r] = true
	}
}

// Recorded reports whether ref has been durably recorded.
func (c *Collector) Recorded(ref prov.Ref) bool { return c.recorded[ref] }

// PendingFor assembles the bundles that must be persisted when path is
// closed or flushed: every unrecorded version of the file itself plus the
// unrecorded ancestor closure (process nodes, prior versions, upstream
// files), ancestors first. This is the multi-object causal ordering set of
// §3: the storage layer must write these before (or atomically with) the
// object. The roots come from the incremental dirty list, so a close costs
// time proportional to the unrecorded fringe, not the object's version
// count.
func (c *Collector) PendingFor(path string) []prov.Bundle {
	st, ok := c.files[path]
	if !ok {
		return nil
	}
	return c.closure(c.dirtyVersions(st.ref.UUID))
}

// dirtyVersions returns the unrecorded versions of one object, oldest
// first, compacting recorded entries out of the dirty list as it goes.
func (c *Collector) dirtyVersions(u uuid.UUID) []prov.Ref {
	list := c.dirty[u]
	if len(list) == 0 {
		return nil
	}
	kept := list[:0]
	for _, r := range list {
		if !c.recorded[r] {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		delete(c.dirty, u)
		return nil
	}
	c.dirty[u] = kept
	return kept
}

// FullClosureFor returns every version of path's object plus its complete
// ancestor closure — recorded or not — in the canonical ancestors-first
// order (root versions oldest first, parents visited in ref-string order).
// The storage layer hashes this closure into the Merkle digest that reading
// clients verify ancestry against; the reader reconstructs the same order
// from the recorded provenance.
func (c *Collector) FullClosureFor(path string) []prov.Bundle {
	st, ok := c.files[path]
	if !ok {
		return nil
	}
	var roots []prov.Ref
	for v := 1; v <= st.ref.Version; v++ {
		r := prov.Ref{UUID: st.ref.UUID, Version: v}
		if c.graph.Node(r) != nil {
			roots = append(roots, r)
		}
	}
	order := c.walkAncestorsFirst(roots, false)
	bundles := make([]prov.Bundle, 0, len(order))
	for _, r := range order {
		bundles = append(bundles, c.graph.Node(r).Bundle())
	}
	return bundles
}

// closure expands roots with their unrecorded ancestors in topological
// (ancestors-first) order.
func (c *Collector) closure(roots []prov.Ref) []prov.Bundle {
	order := c.walkAncestorsFirst(roots, true)
	bundles := make([]prov.Bundle, 0, len(order))
	for _, r := range order {
		bundles = append(bundles, c.graph.Node(r).Bundle())
	}
	return bundles
}

// walkAncestorsFirst is the shared DFS of the closure assemblers: parents in
// canonical (pre-sorted ref-string) order, ancestors emitted before their
// descendants, every node visited once. unrecordedOnly prunes at recorded
// nodes, which is what bounds PendingFor to the dirty fringe. The walk is
// iterative with an explicit frame stack so a version chain tens of
// thousands deep — a long-running process appending to one log file, say —
// cannot overflow the goroutine stack the way the seed's recursion could.
func (c *Collector) walkAncestorsFirst(roots []prov.Ref, unrecordedOnly bool) []prov.Ref {
	if len(roots) == 0 {
		return nil
	}
	const (
		visiting = 1
		done     = 2
	)
	var order []prov.Ref
	state := make(map[prov.Ref]int)
	type frame struct {
		ref     prov.Ref
		parents []prov.Ref
		next    int
	}
	stack := make([]frame, 0, 64)
	push := func(r prov.Ref) {
		state[r] = visiting
		stack = append(stack, frame{ref: r, parents: c.sortedParents(r)})
	}
	for _, r := range roots {
		if state[r] != 0 {
			continue
		}
		push(r)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			descended := false
			for f.next < len(f.parents) {
				p := f.parents[f.next]
				f.next++
				if state[p] == 0 && (!unrecordedOnly || !c.recorded[p]) && c.graph.Node(p) != nil {
					push(p) // f is invalid past this point (stack may grow)
					descended = true
					break
				}
			}
			if descended {
				continue
			}
			state[f.ref] = done
			order = append(order, f.ref)
			stack = stack[:len(stack)-1]
		}
	}
	return order
}
