package query

import (
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/prov"
)

// Filter pushdown: lowering conjunctive type/name/attribute equalities from
// a Spec's Filter into the SELECT grammar, so the simulated SimpleDB's
// planner (internal/cloud/sdb/plan.go) serves them from its secondary
// indexes and responses ship only matching items. Non-pushable shapes —
// disjunctions, negations, the empty-name probe — stay client-side as a
// residue, preserving Filter semantics exactly.

// lowerFilter splits f into a server predicate and a client residue such
// that, for every bundle decoded from a stored provenance item,
//
//	f.Match(bundle) == (SELECT with pushed returns item) && residue.Match(bundle)
//
// Either half may be nil (match-everything). The split leans on the item
// schema invariants: every item carries exactly one type attribute and at
// most one name attribute, cross references are stored in their uuid_version
// form (the form AttrEq compares), and oversized values appear as spill
// markers identically in the item and the decoded records — so a leaf
// equality means the same thing on both sides.
func lowerFilter(f *Filter) (pushed *sdb.Node, residue *Filter) {
	if f == nil {
		return nil, nil
	}
	switch f.op {
	case "and":
		lp, lr := lowerFilter(f.left)
		rp, rr := lowerFilter(f.right)
		return andNode(lp, rp), andFilter(lr, rr)
	case "type":
		return sdb.Eq(prov.AttrType, f.typ.String()), nil
	case "name":
		if f.value == "" {
			// NameIs("") matches bundles with no recorded name (pipes), but
			// no stored attribute equals the empty string — not lowerable.
			return nil, f
		}
		return sdb.Eq(prov.AttrName, f.value), nil
	case "attr":
		if f.attr == sdb.ItemNameKey {
			// The pseudo-attribute would compare item names server-side but
			// record values client-side; keep the client meaning.
			return nil, f
		}
		return sdb.Eq(f.attr, f.value), nil
	}
	// "or" / "not" and anything unknown: evaluated client-side in full.
	return nil, f
}

// andNode conjoins two optional server predicates.
func andNode(l, r *sdb.Node) *sdb.Node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return sdb.And(l, r)
}

// andFilter conjoins two optional client residues.
func andFilter(l, r *Filter) *Filter {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return And(l, r)
}
