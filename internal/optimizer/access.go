package optimizer

import (
	"strconv"
	"strings"

	"aim/internal/catalog"
	"aim/internal/queryinfo"
	"aim/internal/stats"
)

// eqSource is one way to bind an index column by equality: a constant atom
// or a join edge to an already-placed table instance.
type eqSource struct {
	atom *queryinfo.Atom
	join *queryinfo.JoinEdge // this instance's column = placed instance's column
}

// accessPath is one way to read a table instance.
type accessPath struct {
	index    *catalog.Index // nil = clustered full/range access on the PK
	indexKey []string       // effective key columns (index cols, or PK cols)
	eq       []eqSource     // bindings for the leading key columns
	inAtom   *queryinfo.Atom
	rng      *queryinfo.Atom
	covering bool
	icp      []*queryinfo.Atom

	// entrySel is the fraction of the table's entries the scan visits.
	entrySel float64
	// lookupSel is the fraction requiring a PK lookup (after ICP).
	lookupSel float64
	// outSel is the fraction surviving all single-table predicates.
	outSel float64
	// probeCost is the modelled cost of one execution of this access.
	probeCost float64
	// outRows is table rows × outSel.
	outRows float64
}

// Desc renders the access path for EXPLAIN-style output.
func (ap *accessPath) Desc(table string) string {
	eq := strconv.Itoa(len(ap.eq))
	switch {
	case ap.index == nil && len(ap.eq) == 0 && ap.rng == nil && ap.inAtom == nil:
		return table + ": full scan"
	case ap.index == nil:
		return table + ": PK range (eq=" + eq + ")"
	default:
		kind := "ref"
		if ap.rng != nil || ap.inAtom != nil {
			kind = "range"
		}
		covering, icp := "", ""
		if ap.covering {
			covering = ",covering"
		}
		if len(ap.icp) > 0 {
			icp = ",icp"
		}
		return table + ": index " + ap.index.Name + " (" + kind + covering + icp + ") eq=" + eq
	}
}

// instanceContext gathers everything needed to enumerate access paths for
// one table instance. It is built once per planning call, so everything that
// depends only on the instance — statistics, selectivities, the table's
// indexes and their key columns — is derived once rather than on every join
// search transition.
type instanceContext struct {
	// atoms are the instance's single-table filter atoms, in analysis order.
	atoms []*queryinfo.Atom

	ts      *stats.TableStats
	rows    float64   // table row count, at least 1
	atomSel []float64 // atomSelectivity of each atom
	// outSel is the selectivity of all single-table predicates: the atoms
	// and a default for each opaque single-instance conjunct.
	outSel float64
	// pk is the clustered primary key as a keyed access; indexes are the
	// table's indexes in the configuration, in configuration order.
	pk      tableIndex
	indexes []tableIndex
	// edges are the join edges touching the instance, in info.JoinEdges
	// order; neighbors has bit i set when one of them leads to instance i
	// (instances 0-63; wider queries are not memoized).
	edges     []instEdge
	neighbors uint64
}

// instEdge is a join edge seen from one of its instances.
type instEdge struct {
	pos   int    // position in info.JoinEdges
	other int    // the instance on the other side
	col   string // this instance's column
}

// tableIndex is one keyed access to a table — a secondary index, or the
// primary key when ix is nil — with the invariants one planning call needs.
type tableIndex struct {
	ix       *catalog.Index
	key      []string // key columns as declared
	keyLower []string // key columns lower-cased
	// covering: key plus primary-key columns hold every referenced column.
	covering bool
}

// bindKind is how a filter atom can bind an index key column.
type bindKind int

const (
	bindNone bindKind = iota
	bindEq
	bindIn
	bindRange
)

func bindKindOf(op queryinfo.AtomOp) bindKind {
	switch op {
	case queryinfo.OpEq, queryinfo.OpNullSafeEq, queryinfo.OpIsNull:
		return bindEq
	case queryinfo.OpIn:
		return bindIn
	case queryinfo.OpRange, queryinfo.OpLikePrefix:
		return bindRange
	}
	return bindNone
}

func (o *Optimizer) newInstanceContext(info *queryinfo.Info, inst int, cfg *indexForTable) *instanceContext {
	table := info.Layout.Instances[inst].Table
	c := &instanceContext{
		atoms: info.FilterAtoms[inst],
		ts:    o.Stats.TableStats(table.Name),
		rows:  1,
	}
	if c.ts != nil && c.ts.RowCount > 0 {
		c.rows = float64(c.ts.RowCount)
	}
	c.outSel = 1
	for _, cj := range info.Conjuncts {
		if len(cj.Instances) == 1 && cj.Instances[0] == inst && cj.Atom != nil && cj.Atom.Op == queryinfo.OpOther {
			c.outSel *= defaultConjunctSel
		}
	}
	c.atomSel = make([]float64, len(c.atoms))
	for i, a := range c.atoms {
		c.atomSel[i] = atomSelectivity(a, c.ts)
		c.outSel *= c.atomSel[i]
	}

	pk := table.PrimaryKeyNames()
	c.pk = tableIndex{key: pk, keyLower: lowerAll(pk), covering: true}
	n := 0
	for _, ix := range cfg.list {
		if strings.EqualFold(ix.Table, table.Name) {
			n++
		}
	}
	c.indexes = make([]tableIndex, 0, n)
	for _, ix := range cfg.list {
		if !strings.EqualFold(ix.Table, table.Name) {
			continue
		}
		ti := tableIndex{ix: ix, key: ix.Columns, keyLower: lowerAll(ix.Columns), covering: true}
		for _, col := range info.Referenced[inst] {
			if !c.inKeyOrPK(&ti, strings.ToLower(col)) {
				ti.covering = false
				break
			}
		}
		c.indexes = append(c.indexes, ti)
	}

	for i, e := range info.JoinEdges {
		other, col, _, ok := e.Other(inst)
		if !ok {
			continue
		}
		c.edges = append(c.edges, instEdge{pos: i, other: other, col: col})
		if other < 64 {
			c.neighbors |= 1 << uint(other)
		}
	}
	return c
}

// atomOn returns the position in atoms of the filter atom binding col in
// the given way, or -1. Of several equality or IN atoms on one column the
// last is used; of several range atoms the first, not the most selective.
func (c *instanceContext) atomOn(col string, kind bindKind) int {
	found := -1
	for i, a := range c.atoms {
		if a.Column != col || bindKindOf(a.Op) != kind {
			continue
		}
		if kind == bindRange {
			return i
		}
		found = i
	}
	return found
}

// inKeyOrPK reports whether the lower-cased column is in the index key or
// the primary key, i.e. readable from an index entry.
func (c *instanceContext) inKeyOrPK(ti *tableIndex, col string) bool {
	return containsString(ti.keyLower, col) || containsString(c.pk.keyLower, col)
}

// joinEdgeOn returns the position in info.JoinEdges of the edge that binds
// col of the instance to an instance in placed (the last such edge), or -1.
func (c *instanceContext) joinEdgeOn(col string, placed instSet) int {
	for i := len(c.edges) - 1; i >= 0; i-- {
		if e := &c.edges[i]; e.col == col && placed.has(e.other) {
			return e.pos
		}
	}
	return -1
}

// enumeratePaths builds every sensible access path for the instance, given
// the set of placed instances (for join-edge equality bindings): the full
// clustered scan, the primary-key prefix, then each of the table's indexes
// in configuration order.
func (s *search) enumeratePaths(ctx *instanceContext, placed instSet, buf []*accessPath) []*accessPath {
	paths := buf

	// Full clustered scan is always available.
	full := s.newPath()
	*full = accessPath{
		indexKey:  ctx.pk.key,
		entrySel:  1,
		lookupSel: 0,
		outSel:    ctx.outSel,
		covering:  true, // the clustered tree has every column
		probeCost: ctx.rows*costRow + scanPages(ctx.rows)*costPage,
		outRows:   ctx.rows * ctx.outSel,
	}
	paths = append(paths, full)

	// PK-prefix access (eq/range on leading primary key columns).
	if p := s.buildKeyedPath(ctx, &ctx.pk, placed); p != nil {
		paths = append(paths, p)
	}

	// Secondary indexes.
	for i := range ctx.indexes {
		if p := s.buildKeyedPath(ctx, &ctx.indexes[i], placed); p != nil {
			paths = append(paths, p)
		}
	}
	return paths
}

// buildKeyedPath binds the key columns of one index (or the PK) and costs
// the resulting scan. It returns nil when the index is unusable (no leading
// binding) — except that an unbound secondary index can still be useful for
// covering or ordered reads, which the caller handles via fullIndexPath.
func (s *search) buildKeyedPath(ctx *instanceContext, ti *tableIndex, placed instSet) *accessPath {
	var eqBuf [8]eqSource
	eq := eqBuf[:0]
	var inAtom, rng *queryinfo.Atom
	entrySel := 1.0
	pos := 0
	for ; pos < len(ti.keyLower); pos++ {
		col := ti.keyLower[pos]
		if a := ctx.atomOn(col, bindEq); a >= 0 {
			eq = append(eq, eqSource{atom: ctx.atoms[a]})
			entrySel *= ctx.atomSel[a]
			continue
		}
		if e := ctx.joinEdgeOn(col, placed); e >= 0 {
			eq = append(eq, eqSource{join: &s.info.JoinEdges[e]})
			entrySel *= s.edgeSel[e]
			continue
		}
		break
	}
	if pos < len(ti.keyLower) {
		col := ti.keyLower[pos]
		if a := ctx.atomOn(col, bindIn); a >= 0 {
			inAtom = ctx.atoms[a]
			entrySel *= ctx.atomSel[a]
		} else if a := ctx.atomOn(col, bindRange); a >= 0 {
			rng = ctx.atoms[a]
			entrySel *= ctx.atomSel[a]
		}
	}
	if len(eq) == 0 && inAtom == nil && rng == nil {
		return nil // no binding; the plain full-scan path already covers this
	}
	p := s.newPath()
	*p = accessPath{index: ti.ix, indexKey: ti.key, inAtom: inAtom, rng: rng}
	if len(eq) > 0 {
		p.eq = append([]eqSource(nil), eq...)
	}
	finishPath(ctx, p, ti, entrySel)
	return p
}

// fullIndexPath builds an unbounded scan over a secondary index, useful only
// for covering or ordered reads. The caller decides when to consider it.
func fullIndexPath(ctx *instanceContext, ti *tableIndex) *accessPath {
	p := &accessPath{index: ti.ix, indexKey: ti.key}
	finishPath(ctx, p, ti, 1.0)
	return p
}

// finishPath computes covering/ICP and the probe cost.
func finishPath(ctx *instanceContext, p *accessPath, ti *tableIndex, entrySel float64) {
	rows := ctx.rows
	p.entrySel = entrySel
	p.outSel = ctx.outSel
	p.outRows = rows * ctx.outSel

	if p.index != nil {
		p.covering = ti.covering
		// ICP: atoms over index key + PK columns reduce PK lookups.
		lookupSel := entrySel
		for i, a := range ctx.atoms {
			if !ctx.inKeyOrPK(ti, a.Column) {
				continue
			}
			if usedInBinding(p, a) {
				continue
			}
			p.icp = append(p.icp, a)
			lookupSel *= ctx.atomSel[i]
		}
		p.lookupSel = lookupSel
	} else {
		p.covering = true
		p.lookupSel = 0
	}

	entries := rows * entrySel
	ranges := 1.0
	if p.inAtom != nil {
		n := len(p.inAtom.InValues)
		if n == 0 {
			n = defaultInCount
		}
		ranges = float64(n)
	}
	height := treeHeight(rows)
	cost := ranges*height*costPage + entries*costRow + scanPages(entries)*costPage
	if p.index != nil && !p.covering {
		lookups := rows * p.lookupSel
		cost += lookups * (height*costPage + costRow)
	}
	p.probeCost = cost
}

// lowerAll returns the names lower-cased, sharing the slice when every name
// already is.
func lowerAll(names []string) []string {
	for i, n := range names {
		if strings.ToLower(n) == n {
			continue
		}
		out := make([]string, len(names))
		copy(out, names[:i])
		for j := i; j < len(names); j++ {
			out[j] = strings.ToLower(names[j])
		}
		return out
	}
	return names
}

func containsString(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func usedInBinding(p *accessPath, a *queryinfo.Atom) bool {
	for _, e := range p.eq {
		if e.atom == a {
			return true
		}
	}
	return p.inAtom == a || p.rng == a
}

// treeHeight models the B+tree descent depth for a table of the given size.
func treeHeight(rows float64) float64 {
	h := 1.0
	for n := rows / entriesPerLeaf; n > 1; n /= entriesPerLeaf {
		h++
	}
	return h
}

// bestPath returns the cheapest path from the list.
func bestPath(paths []*accessPath) *accessPath {
	var best *accessPath
	for _, p := range paths {
		if best == nil || p.probeCost < best.probeCost {
			best = p
		}
	}
	return best
}
