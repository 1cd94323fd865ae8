package exec

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// errStop aborts the join pipeline once a LIMIT target is reached.
var errStop = errors.New("exec: early stop")

// Executor runs physical plans against a store.
type Executor struct {
	Store *storage.Store
	// RowOnly disables the vectorized batch engine and hash probes, forcing
	// every plan through the tuple-at-a-time row loop with plain nested
	// loops. The zero value is the production configuration; differential
	// tests and benchmarks flip it to pin the two engines against each other.
	RowOnly bool
	m       *execMetrics // nil when observability is off
	// arenas recycles batch scratch buffers (row views, selection vectors,
	// tri-state predicate lanes, decode slabs) across vectorized runs.
	arenas sync.Pool
}

// New returns an executor over the store.
func New(store *storage.Store) *Executor { return &Executor{Store: store} }

// Result is the output of a SELECT execution.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
	Stats   Stats
}

// Run executes a SELECT plan.
func (e *Executor) Run(p *Plan, columns []string) (*Result, error) {
	res := &Result{Columns: columns}
	env := make([]sqltypes.Value, p.Layout.Width)

	// Early termination: when no sort, grouping or dedup reorders rows,
	// LIMIT can stop the pipeline as soon as enough rows are produced.
	rowTarget := int64(-1)
	if !p.Grouped && !p.Distinct && p.Limit >= 0 && (len(p.OrderBy) == 0 || p.OrderSatisfied) {
		rowTarget = p.Limit + p.Offset
	}

	// The batch engine covers single-step pipelines without an early-stop
	// target. Join pipelines stay on the row loop (batching doesn't pay for
	// the inner steps of an index nested-loop join; unindexed inners get
	// hash probes there instead), and early-stop plans
	// must stop mid-scan at exactly the row the row loop would, which batch
	// reads cannot do without breaking Stats parity.
	if !e.RowOnly && rowTarget < 0 && len(p.Steps) == 1 {
		return e.runVectorized(p, res)
	}

	var outRows []sqltypes.Row
	emitEnvRow := func() error {
		row := make(sqltypes.Row, len(p.Output))
		for i, o := range p.Output {
			v, err := o.Expr(env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		outRows = append(outRows, row)
		if rowTarget >= 0 && int64(len(outRows)) >= rowTarget {
			return errStop
		}
		return nil
	}

	if p.Grouped {
		agg := newAggregator(p)
		err := e.runSteps(p, env, &res.Stats, func() error { return agg.absorb(env) })
		if err != nil {
			return nil, err
		}
		outRows, err = agg.finish()
		if err != nil {
			return nil, err
		}
	} else {
		if err := e.runSteps(p, env, &res.Stats, emitEnvRow); err != nil && err != errStop {
			return nil, err
		}
	}

	return e.finish(p, outRows, res)
}

// finish applies the shared result tail — DISTINCT, ORDER BY, LIMIT/OFFSET,
// hidden-column trimming — and records stats. Both the row loop and the batch
// engine end here, so the tail semantics are identical by construction.
func (e *Executor) finish(p *Plan, outRows []sqltypes.Row, res *Result) (*Result, error) {
	if p.Distinct {
		outRows = distinctRows(outRows, p.HiddenTail, &res.Stats)
	}
	if len(p.OrderBy) > 0 && !p.OrderSatisfied {
		res.Stats.SortRows += int64(len(outRows))
		sortRows(outRows, p.OrderBy)
	}
	outRows = applyLimit(outRows, p.Limit, p.Offset)
	if p.HiddenTail > 0 {
		for i, r := range outRows {
			outRows[i] = r[:len(r)-p.HiddenTail]
		}
	}
	res.Rows = outRows
	res.Stats.RowsSent = int64(len(outRows))
	e.record(res.Stats)
	return res, nil
}

// pipeline is one Run's left-deep nested-loop join: the plan, the shared env
// row buffer, the Stats it charges, the per-row callback, and the lazily
// built hash tables of unindexed inner steps (hashprobe.go). It lives for one
// Run only, so concurrent statements sharing an Executor or a cached Plan
// never share join state.
type pipeline struct {
	e     *Executor
	p     *Plan
	env   []sqltypes.Value
	st    *Stats
	onRow func() error
	// hash holds one slot per step, allocated on the first probe of an
	// unindexed inner step on the default engine; nil otherwise.
	hash []hashSlot
}

// runSteps drives the left-deep nested-loop pipeline. onRow is invoked once
// per fully joined env row.
func (e *Executor) runSteps(p *Plan, env []sqltypes.Value, st *Stats, onRow func() error) error {
	r := &pipeline{e: e, p: p, env: env, st: st, onRow: onRow}
	return r.run(0)
}

// run executes step depth for the current env row, recursing into the next
// step for every row it accepts.
func (r *pipeline) run(depth int) error {
	p, env := r.p, r.env
	if depth == len(p.Steps) {
		return r.onRow()
	}
	step := &p.Steps[depth]
	inst := p.Layout.Instances[step.Instance]
	tbl := r.e.Store.Table(inst.Table.Name)
	if tbl == nil {
		return fmt.Errorf("exec: table %q not materialized", inst.Table.Name)
	}

	// Resolve equality-prefix values; a NULL equality key matches nothing.
	prefix := make([]sqltypes.Value, len(step.EqKeys))
	for i, k := range step.EqKeys {
		v := k.Resolve(env)
		if v.IsNull() {
			return nil
		}
		prefix[i] = v
	}

	if len(step.In) > 0 {
		// Multi-range read: one bounded scan per IN value, in value order so
		// the output remains sorted on the index columns.
		vals := make([]sqltypes.Value, 0, len(step.In))
		for _, ks := range step.In {
			v := ks.Resolve(env)
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return sqltypes.Compare(vals[i], vals[j]) < 0 })
		prev := sqltypes.Null
		for _, v := range vals {
			if !prev.IsNull() && sqltypes.Compare(prev, v) == 0 {
				continue // dedupe repeated IN values
			}
			prev = v
			full := append(append([]sqltypes.Value(nil), prefix...), v)
			lo, hi, hiInc, _ := scanBounds(full, nil, env) // non-null prefix: never empty
			var err error
			if step.IndexName == "" {
				err = r.scanClustered(depth, step, tbl, lo, hi, hiInc)
			} else {
				err = r.scanIndex(depth, step, tbl, lo, hi, hiInc)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if h := r.hashFor(depth, step, tbl); h != nil {
		return r.probeHash(depth, step, tbl, h)
	}
	lo, hi, hiInc, empty := scanBounds(prefix, step.Range, env)
	if empty {
		return nil
	}
	if step.IndexName == "" {
		return r.scanClustered(depth, step, tbl, lo, hi, hiInc)
	}
	return r.scanIndex(depth, step, tbl, lo, hi, hiInc)
}

// scanBounds builds encoded byte bounds from the equality prefix and the
// optional range on the following column. The returned hiInc is real: an
// inclusive upper bound relies on the B+tree's prefix-inclusive bound
// semantics (keys equal to hi or extending it stay in range), which admits
// exactly the composite keys whose bounded columns match — no artificial
// 0xFF successor byte is appended. empty marks a scan statically proven to
// match nothing: a NULL range bound makes the comparison predicate NULL for
// every row, so the caller skips the scan outright instead of walking keys
// the residual filter would discard one by one.
func scanBounds(prefix []sqltypes.Value, rng *RangeSpec, env []sqltypes.Value) (lo, hi []byte, hiInc, empty bool) {
	base := sqltypes.EncodeKey(nil, prefix...)
	if rng == nil {
		if len(prefix) == 0 {
			return nil, nil, false, false // full scan
		}
		// Prefix-only: every key extending base.
		return base, base, true, false
	}
	lo = base
	if rng.Lo != nil {
		v := rng.Lo.Resolve(env)
		if v.IsNull() {
			return nil, nil, false, true
		}
		lo = sqltypes.EncodeKey(append([]byte(nil), base...), v)
		if !rng.LoInc {
			// Exclusive lower bound: skip every key extending lo. 0xFF sorts
			// after any value-encoding continuation byte (tags are <= 0x02),
			// so lo+0xFF lands past the last key whose bounded column equals
			// the bound and before the next column value's first key.
			lo = append(lo, 0xFF)
		}
	}
	if rng.Hi != nil {
		v := rng.Hi.Resolve(env)
		if v.IsNull() {
			return nil, nil, false, true
		}
		hi = sqltypes.EncodeKey(append([]byte(nil), base...), v)
		hiInc = rng.HiInc
	} else if len(base) > 0 {
		hi, hiInc = base, true
	}
	return lo, hi, hiInc, false
}

func (r *pipeline) scanClustered(depth int, step *Step, tbl *storage.Table, lo, hi []byte, hiInc bool) error {
	e, env, st := r.e, r.env, r.st
	base := r.p.Layout.Instances[step.Instance].Base
	ncols := len(r.p.Layout.Instances[step.Instance].Table.Columns)
	if e.m != nil {
		e.m.clusteredScans.Inc()
	}
	var scanned int64
	st.PageReads += int64(tbl.Data().Height())
	it := tbl.Data().SeekRange(lo, hi, hiInc)
	for ; it.Valid(); it.Next() {
		st.RowsRead++
		scanned++
		row := it.Value().(sqltypes.Row)
		copy(env[base:base+ncols], row)
		ok, err := passes(step.Filter, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := r.run(depth + 1); err != nil {
			return err
		}
	}
	st.PageReads += int64(it.LeavesWalked())
	if e.m != nil {
		e.m.clusteredRows.Add(scanned)
	}
	clearSegment(env, base, ncols)
	return nil
}

func (r *pipeline) scanIndex(depth int, step *Step, tbl *storage.Table, lo, hi []byte, hiInc bool) error {
	e, env, st := r.e, r.env, r.st
	ix := tbl.Index(step.IndexName)
	if ix == nil {
		return fmt.Errorf("exec: index %q not materialized on %s", step.IndexName, tbl.Def.Name)
	}
	inst := r.p.Layout.Instances[step.Instance]
	base := inst.Base
	ncols := len(inst.Table.Columns)
	keyCols := len(ix.Ordinals()) + len(tbl.Def.PrimaryKey)

	if e.m != nil {
		if step.Covering {
			e.m.indexOnlyScans.Inc()
		} else {
			e.m.indexScans.Inc()
		}
	}
	var scanned int64
	st.PageReads += int64(ix.Tree().Height())
	it := ix.Tree().SeekRange(lo, hi, hiInc)
	for ; it.Valid(); it.Next() {
		st.RowsRead++ // index entry examined
		scanned++
		needDecode := step.Covering || step.ICP != nil
		if needDecode {
			vals, _, err := sqltypes.DecodeKey(it.Key(), keyCols)
			if err != nil {
				return fmt.Errorf("exec: corrupt index entry: %v", err)
			}
			clearSegment(env, base, ncols)
			for i, o := range ix.Ordinals() {
				env[base+o] = vals[i]
			}
			for i, o := range tbl.Def.PrimaryKey {
				env[base+o] = vals[len(ix.Ordinals())+i]
			}
			if step.ICP != nil {
				ok, err := passes(step.ICP, env)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
		}
		if !step.Covering {
			pk := it.Value().([]byte)
			row, ok := tbl.GetByPK(pk, nil)
			if !ok {
				return fmt.Errorf("exec: dangling index entry in %s", step.IndexName)
			}
			st.RowsRead++
			st.PageReads += int64(tbl.Data().Height())
			copy(env[base:base+ncols], row)
		}
		ok, err := passes(step.Filter, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := r.run(depth + 1); err != nil {
			return err
		}
	}
	st.PageReads += int64(it.LeavesWalked())
	if e.m != nil {
		e.m.indexRows.Add(scanned)
	}
	clearSegment(env, base, ncols)
	return nil
}

func clearSegment(env []sqltypes.Value, base, n int) {
	for i := base; i < base+n; i++ {
		env[i] = sqltypes.Null
	}
}

func passes(f CompiledExpr, env []sqltypes.Value) (bool, error) {
	if f == nil {
		return true, nil
	}
	v, err := f(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// aggregator implements hash (or streaming) group-by aggregation.
type aggregator struct {
	p      *Plan
	groups map[string]*groupState
	order  []string // insertion order for deterministic output
	// streaming state
	stream    bool
	curKey    []byte
	curState  *groupState
	flushed   []sqltypes.Row
	streamErr error
}

type groupState struct {
	rep    sqltypes.Row // representative env row for non-aggregate outputs
	counts []int64
	sums   []float64
	mins   []sqltypes.Value
	maxs   []sqltypes.Value
}

func newAggregator(p *Plan) *aggregator {
	return &aggregator{p: p, groups: map[string]*groupState{}, stream: p.GroupOrdered}
}

func (a *aggregator) newState(env []sqltypes.Value) *groupState {
	n := len(a.p.Aggs)
	rep := make(sqltypes.Row, len(env))
	copy(rep, env)
	return &groupState{
		rep:    rep,
		counts: make([]int64, n),
		sums:   make([]float64, n),
		mins:   make([]sqltypes.Value, n),
		maxs:   make([]sqltypes.Value, n),
	}
}

func (a *aggregator) absorb(env []sqltypes.Value) error {
	var keyBytes []byte
	if len(a.p.GroupBy) > 0 {
		keyVals := make([]sqltypes.Value, len(a.p.GroupBy))
		for i, g := range a.p.GroupBy {
			v, err := g(env)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		keyBytes = sqltypes.EncodeKey(nil, keyVals...)
	}
	gs, err := a.state(keyBytes, env)
	if err != nil {
		return err
	}
	for i, spec := range a.p.Aggs {
		var v sqltypes.Value
		if spec.Arg != nil {
			var err error
			v, err = spec.Arg(env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // aggregates skip NULLs
			}
		}
		gs.add(i, spec.Func, &v)
	}
	return nil
}

// state returns the group state for the encoded key, creating it (and, in
// streaming mode, flushing the previous group) on first sight. Both the
// per-row absorb and the batch fast path route through here, so group
// identity, insertion order and stream flushing have a single definition.
func (a *aggregator) state(keyBytes []byte, env []sqltypes.Value) (*groupState, error) {
	if a.stream {
		if a.curState != nil && string(a.curKey) == string(keyBytes) {
			return a.curState, nil
		}
		if a.curState != nil {
			row, err := a.emitGroup(a.curState)
			if err != nil {
				return nil, err
			}
			a.flushed = append(a.flushed, row)
		}
		gs := a.newState(env)
		a.curState = gs
		a.curKey = append(a.curKey[:0], keyBytes...)
		return gs, nil
	}
	gs, ok := a.groups[string(keyBytes)]
	if !ok {
		gs = a.newState(env)
		a.groups[string(keyBytes)] = gs
		a.order = append(a.order, string(keyBytes))
	}
	return gs, nil
}

// add folds one non-NULL value (ignored for COUNT) into aggregate slot i.
// v is by pointer purely so hot loops avoid a Value copy per call; it is
// never mutated.
func (gs *groupState) add(i int, f AggFunc, v *sqltypes.Value) {
	switch f {
	case AggCount:
		gs.counts[i]++
	case AggSum, AggAvg:
		gs.counts[i]++
		gs.sums[i] += v.Float()
	case AggMin:
		if gs.counts[i] == 0 || sqltypes.ComparePtr(v, &gs.mins[i]) < 0 {
			gs.mins[i] = *v
		}
		gs.counts[i]++
	case AggMax:
		if gs.counts[i] == 0 || sqltypes.ComparePtr(v, &gs.maxs[i]) > 0 {
			gs.maxs[i] = *v
		}
		gs.counts[i]++
	}
}

func (a *aggregator) emitGroup(gs *groupState) (sqltypes.Row, error) {
	row := make(sqltypes.Row, len(a.p.Output))
	for i, o := range a.p.Output {
		if o.Agg >= 0 {
			row[i] = aggResult(a.p.Aggs[o.Agg], gs, o.Agg)
			continue
		}
		v, err := o.Expr(gs.rep)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func aggResult(spec AggSpec, gs *groupState, i int) sqltypes.Value {
	switch spec.Func {
	case AggCount:
		return sqltypes.NewInt(gs.counts[i])
	case AggSum:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return sqltypes.Float64ToValue(gs.sums[i])
	case AggAvg:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(gs.sums[i] / float64(gs.counts[i]))
	case AggMin:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return gs.mins[i]
	case AggMax:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return gs.maxs[i]
	}
	return sqltypes.Null
}

func (a *aggregator) finish() ([]sqltypes.Row, error) {
	if a.stream {
		if a.curState != nil {
			row, err := a.emitGroup(a.curState)
			if err != nil {
				return nil, err
			}
			a.flushed = append(a.flushed, row)
		}
		return a.flushed, nil
	}
	// A grouped query with no groups and no GROUP BY yields one row of
	// aggregates over the empty set.
	if len(a.groups) == 0 && len(a.p.GroupBy) == 0 {
		gs := a.newState(make([]sqltypes.Value, a.p.Layout.Width))
		row, err := a.emitGroup(gs)
		if err != nil {
			return nil, err
		}
		return []sqltypes.Row{row}, nil
	}
	out := make([]sqltypes.Row, 0, len(a.groups))
	for _, k := range a.order {
		row, err := a.emitGroup(a.groups[k])
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// distinctRows dedupes on the visible output prefix only: hidden ORDER BY
// tail columns are sort keys, not part of the SELECT DISTINCT row identity.
// (Deduping the full row let rows differing only in a hidden sort column
// survive, so SELECT DISTINCT a ... ORDER BY b returned duplicates of a.)
// The first occurrence wins, which also fixes which hidden sort key the
// surviving row carries into the sort — in pipeline order, deterministically.
func distinctRows(rows []sqltypes.Row, hidden int, st *Stats) []sqltypes.Row {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		k := string(sqltypes.EncodeKey(nil, r[:len(r)-hidden]...))
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	st.SortRows += int64(len(rows)) // dedup work accounted like a sort pass
	return out
}

func sortRows(rows []sqltypes.Row, specs []OrderSpec) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, s := range specs {
			c := sqltypes.Compare(rows[i][s.Col], rows[j][s.Col])
			if c == 0 {
				continue
			}
			if s.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func applyLimit(rows []sqltypes.Row, limit, offset int64) []sqltypes.Row {
	if offset > 0 {
		if offset >= int64(len(rows)) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < int64(len(rows)) {
		rows = rows[:limit]
	}
	return rows
}
