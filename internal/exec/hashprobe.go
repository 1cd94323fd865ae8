package exec

import (
	"encoding/binary"
	"math"

	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// Hash probes for unindexed join inners.
//
// A join step with no usable index reads its whole table once per outer row:
// the optimizer priced exactly that nested loop. When the step's residual
// filter equates one of its columns with a column of an earlier step, the
// default engine instead builds a per-Run hash table of the inner rows on the
// step's second probe and serves every later probe from it. Only the
// physical strategy changes:
//
//   - Candidates are the rows whose key equals the outer key; each is
//     re-checked with the step's compiled Filter, in scan order, so rows
//     and their order are exactly the nested loop's.
//   - Each probe charges the Stats and scan counters of the full scan it
//     replaces (see probeHash), so cost feedback, the advisor and the
//     shadow gate see the priced plan's accounting.
//   - The nested loop evaluates the filter on every inner row, so a filter
//     that can error on a row the hash skips must keep the loop. Only
//     filters compileVec accepts — shapes that cannot error — qualify.

// hashSlot is one step's hash-probe state within a Run.
type hashSlot struct {
	probes int        // probes of the step so far
	h      *hashInner // built on the second probe; nil before it and for ineligible steps
}

// hashInner is the hash table of one inner step: the inner rows in clustered
// scan order, chained per key in that order, plus the full-scan accounting
// every probe charges.
type hashInner struct {
	innerCols []int // key columns as inner-row ordinals
	outerOffs []int // matching env offsets of earlier steps' columns
	rows      []sqltypes.Row
	head      map[string]int // key -> first ordinal with that key
	next      []int          // ordinal -> next ordinal with the same key, -1 at the end
	height    int64          // clustered tree height: the scan's seek
	leaves    int64          // leaves a full scan walks
	key       []byte         // probe-key scratch
}

// hashFor returns the step's hash table when this probe should use it, or nil
// when the probe runs the ordinary scan. The first probe of a step always
// scans, so a step probed once never pays for a build.
func (r *pipeline) hashFor(depth int, step *Step, tbl *storage.Table) *hashInner {
	if r.e.RowOnly || depth == 0 || step.IndexName != "" ||
		len(step.EqKeys) > 0 || step.Range != nil || len(step.In) > 0 {
		return nil
	}
	if r.hash == nil {
		r.hash = make([]hashSlot, len(r.p.Steps))
	}
	s := &r.hash[depth]
	if s.probes++; s.probes == 2 {
		s.h = r.buildHash(depth, step, tbl)
	}
	return s.h
}

// buildHash reads the step's table into a hash table keyed on its equi-join
// conjuncts, or returns nil when the step is ineligible: a filter that could
// error, no inner = outer conjunct, or a NaN key (Compare finds NaN equal to
// every number, which no hash can express).
func (r *pipeline) buildHash(depth int, step *Step, tbl *storage.Table) *hashInner {
	if step.FilterSrc == nil || compileVec(step.FilterSrc, r.p.Layout) == nil {
		return nil
	}
	innerCols, outerOffs := r.joinKeys(depth, step)
	if len(innerCols) == 0 {
		return nil
	}
	data := tbl.Data()
	h := &hashInner{innerCols: innerCols, outerOffs: outerOffs, height: int64(data.Height())}
	h.rows = make([]sqltypes.Row, 0, data.Len())
	it := data.SeekRange(nil, nil, false)
	for ; it.Valid(); it.Next() {
		h.rows = append(h.rows, it.Value().(sqltypes.Row))
	}
	h.leaves = int64(it.LeavesWalked())

	// Chain in reverse so each key's chain runs in ascending scan order.
	h.head = make(map[string]int)
	h.next = make([]int, len(h.rows))
	for j := len(h.rows) - 1; j >= 0; j-- {
		h.next[j] = -1
		key, ok, nan := hashKey(h.key[:0], h.rows[j], h.innerCols)
		h.key = key
		if nan {
			return nil
		}
		if !ok {
			continue // a NULL key equals nothing
		}
		if first, found := h.head[string(key)]; found {
			h.next[j] = first
		}
		h.head[string(key)] = j
	}
	if r.e.m != nil {
		r.e.m.hashBuilds.Inc()
	}
	return h
}

// joinKeys collects the top-level conjuncts of the step's filter of the form
// inner.col = outer.col, where outer is an instance an earlier step filled. It
// returns the inner column ordinals and the matching outer env offsets.
func (r *pipeline) joinKeys(depth int, step *Step) (innerCols, outerOffs []int) {
	l := r.p.Layout
	inst := l.Instances[step.Instance]
	inner := func(off int) bool { return off >= inst.Base && off < inst.Base+len(inst.Table.Columns) }
	outer := func(off int) bool {
		owner := l.InstanceForOffset(off)
		for _, s := range r.p.Steps[:depth] {
			if s.Instance == owner {
				return true
			}
		}
		return false
	}
	var walk func(e sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		b, ok := e.(*sqlparser.BinaryExpr)
		if !ok {
			return
		}
		switch b.Op {
		case "AND":
			walk(b.Left)
			walk(b.Right)
		case "=":
			lsrc, lok := compileValSrc(b.Left, l)
			rsrc, rok := compileValSrc(b.Right, l)
			if !lok || !rok || lsrc.off < 0 || rsrc.off < 0 {
				return
			}
			a, c := lsrc.off, rsrc.off
			if !inner(a) {
				a, c = c, a
			}
			if inner(a) && outer(c) {
				innerCols = append(innerCols, a-inst.Base)
				outerOffs = append(outerOffs, c)
			}
		}
	}
	walk(step.FilterSrc)
	return innerCols, outerOffs
}

// probeHash runs one probe of a hashed inner step. It charges exactly what
// scanClustered charges for the full scan it replaces: the seek height up
// front, then every row and every leaf on completion, or rows up to and
// including the candidate at which a later step stopped the pipeline (LIMIT
// or error), with no leaves.
func (r *pipeline) probeHash(depth int, step *Step, tbl *storage.Table, h *hashInner) error {
	key, ok, nan := hashKey(h.key[:0], r.env, h.outerOffs)
	h.key = key
	if nan {
		return r.scanClustered(depth, step, tbl, nil, nil, false)
	}
	e, env, st := r.e, r.env, r.st
	inst := r.p.Layout.Instances[step.Instance]
	base, ncols := inst.Base, len(inst.Table.Columns)
	if e.m != nil {
		e.m.clusteredScans.Inc()
		e.m.hashProbes.Inc()
	}
	st.PageReads += h.height
	j := -1
	if ok {
		if first, found := h.head[string(key)]; found {
			j = first
		}
	}
	for ; j >= 0; j = h.next[j] {
		copy(env[base:base+ncols], h.rows[j])
		pass, err := passes(step.Filter, env)
		if err == nil && pass {
			err = r.run(depth + 1)
		}
		if err != nil {
			st.RowsRead += int64(j) + 1
			return err
		}
	}
	n := int64(len(h.rows))
	st.RowsRead += n
	st.PageReads += h.leaves
	if e.m != nil {
		e.m.clusteredRows.Add(n)
	}
	clearSegment(env, base, ncols)
	return nil
}

// hashKey appends the equality key of vals[offs] to dst. The encoding agrees
// with Compare's equality: the numeric family is keyed by float64 value (so
// INT 3 and FLOAT 3.0 collide, and -0 joins 0), strings and bytes by their
// bytes. Distinct values that share a float64 still collide, which only adds
// candidates the filter re-check rejects. ok is false when a component is
// NULL, which equals nothing; nan reports a NaN component.
func hashKey(dst []byte, vals []sqltypes.Value, offs []int) (key []byte, ok, nan bool) {
	for _, off := range offs {
		v := &vals[off]
		switch v.Kind() {
		case sqltypes.KindNull:
			return dst, false, false
		case sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindBool:
			f := v.Float()
			if math.IsNaN(f) {
				return dst, false, true
			}
			if f == 0 {
				f = 0 // fold -0 into 0
			}
			dst = binary.BigEndian.AppendUint64(append(dst, 1), math.Float64bits(f))
		default:
			s := v.Str()
			dst = append(binary.AppendUvarint(append(dst, 2), uint64(len(s))), s...)
		}
	}
	return dst, true, false
}
