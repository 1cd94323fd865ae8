package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/server"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// checkResult is the outcome of replaying one round off the wire.
type checkResult struct {
	problems []string
	// cpuTuned and cpuBare are the modelled CPU seconds of the steady
	// sample (every write, 1 in checkEvery reads) with the round's adopted
	// set and with no secondary index.
	cpuTuned, cpuBare float64
}

// answer is what the no-index replay says a read must return.
type answer struct {
	stats   exec.Stats
	columns string
	keys    []string // sorted row keys
	// limit is the statement's LIMIT (-1 without one). A LIMIT may return
	// any qualifying rows when the order does not decide between them, so
	// full counts the row keys of the unlimited result and fullN is its
	// size.
	limit, offset int64
	full          map[string]int
	fullN         int64
	// order holds the result positions of the ORDER BY items; top is the
	// sort key of every row the statement must return, in order. Rows that
	// tie on the whole sort key may come back in any order, and under a
	// LIMIT the last key's ties may be any of them, but the keys may not.
	order []orderCol
	top   []string
}

// orderCol is one ORDER BY item resolved to a result column.
type orderCol struct {
	col  int
	desc bool
}

// oracle answers reads from a no-index clone. On a workload without
// writes the data never changes, so answers are memoized by statement text
// for the whole run, and tuned CPU by statement text for the round.
type oracle struct {
	memo    bool
	answers map[string]*answer
}

func newOracle(sp *spec) *oracle {
	return &oracle{memo: !sp.writes, answers: map[string]*answer{}}
}

// answer replays a read on the no-index clone db.
func (o *oracle) answer(db *engine.DB, sql string) (*answer, error) {
	if a, ok := o.answers[sql]; ok {
		return a, nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel := stmt.(*sqlparser.Select)
	res, err := db.ExecStmt(sel)
	if err != nil {
		return nil, err
	}
	a := &answer{stats: res.Stats, columns: strings.Join(res.Columns, ","), keys: rowKeys(res.Rows), limit: sel.Limit, offset: sel.Offset}
	for _, item := range sel.OrderBy {
		col := slices.Index(res.Columns, item.Expr.SQL())
		if col < 0 {
			return nil, fmt.Errorf("ORDER BY %s is not a result column, so its order cannot be checked", item.SQL())
		}
		a.order = append(a.order, orderCol{col, item.Desc})
	}
	if a.order != nil {
		for _, r := range res.Rows {
			a.top = append(a.top, a.sortKey(r))
		}
		sort.Strings(a.top)
	}
	if sel.Limit >= 0 {
		sel.Limit, sel.Offset = -1, 0
		full, err := db.ExecStmt(sel)
		if err != nil {
			return nil, fmt.Errorf("unlimited replay: %v", err)
		}
		a.full, a.fullN = map[string]int{}, int64(len(full.Rows))
		for _, k := range rowKeys(full.Rows) {
			a.full[k]++
		}
	}
	if o.memo {
		o.answers[sql] = a
	}
	return a, nil
}

// checkRound replays every write and the sampled reads of a round, in send
// order, on a no-index COW clone of the fixture, and compares row multisets
// and affected counts with what the client received. The same replay gives
// the no-index side of cpu_ratio; the tuned side replays the steady sample
// on the clone the round took of the server right after the verdict.
func checkRound(sp *spec, o *oracle, fixture *engine.DB, rr *roundResult) *checkResult {
	out := &checkResult{}
	bare := fixture.Clone("check")
	defer bare.Release()
	defer rr.model.Release()
	tunedCPU := map[string]float64{}
	fail := func(st *sentStmt, format string, args ...any) {
		out.problems = append(out.problems, fmt.Sprintf("round %d %q: ", rr.k, st.sql)+fmt.Sprintf(format, args...))
	}
	analyzed := false
	for i := range rr.stmts {
		st := &rr.stmts[i]
		if !st.write && !sp.sampled(st.idx) {
			continue
		}
		if st.err != nil {
			fail(st, "%v", st.err)
			continue
		}
		if st.phase == phaseSteady && !analyzed && len(rr.adopted) > 0 {
			// An applied recommendation re-analyzes the serving database;
			// the no-index replay mirrors it so both sides plan from the
			// same statistics.
			bare.Analyze()
			analyzed = true
		}
		var bareCPU float64
		if st.write {
			res, err := bare.Exec(st.sql)
			if err != nil {
				fail(st, "replay: %v", err)
				continue
			}
			if st.res.Affected != res.Stats.RowsSent {
				fail(st, "affected %d, replay %d", st.res.Affected, res.Stats.RowsSent)
			}
			bareCPU = res.Stats.CPUSeconds()
		} else {
			a, err := o.answer(bare, st.sql)
			if err != nil {
				fail(st, "replay: %v", err)
				continue
			}
			if msg := a.check(st.res); msg != "" {
				fail(st, "%s", msg)
			}
			bareCPU = a.stats.CPUSeconds()
		}
		if st.phase != phaseSteady {
			continue
		}
		cpu, ok := tunedCPU[st.sql]
		if !ok {
			tuned, err := rr.model.Exec(st.sql)
			if err != nil {
				fail(st, "tuned replay: %v", err)
				continue
			}
			cpu = tuned.Stats.CPUSeconds()
			if o.memo && !st.write {
				tunedCPU[st.sql] = cpu
			}
		}
		out.cpuBare += bareCPU
		out.cpuTuned += cpu
	}
	return out
}

// check compares a client result with the answer.
func (a *answer) check(got *server.Result) string {
	if cols := strings.Join(got.Columns, ","); cols != a.columns {
		return fmt.Sprintf("columns %s, replay %s", cols, a.columns)
	}
	if a.order != nil {
		for i := 1; i < len(got.Rows); i++ {
			if a.compare(got.Rows[i-1], got.Rows[i]) > 0 {
				return fmt.Sprintf("rows %d and %d out of ORDER BY order", i-1, i)
			}
		}
		keys := make([]string, len(got.Rows))
		for i, r := range got.Rows {
			keys[i] = a.sortKey(r)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, a.top) {
			return fmt.Sprintf("sort keys of the %d rows differ from the replay's first %d", len(keys), len(a.top))
		}
	}
	keys := rowKeys(got.Rows)
	if a.full == nil {
		if !slices.Equal(keys, a.keys) {
			return fmt.Sprintf("%d rows differ from the replay's %d", len(keys), len(a.keys))
		}
		return ""
	}
	n := min(max(a.fullN-a.offset, 0), a.limit)
	if int64(len(keys)) != n {
		return fmt.Sprintf("%d rows under LIMIT %d, replay qualifies %d", len(keys), a.limit, a.fullN)
	}
	seen := map[string]int{}
	for _, k := range keys {
		seen[k]++
		if seen[k] > a.full[k] {
			return "rows outside the unlimited result"
		}
	}
	return ""
}

// compare orders two result rows by the statement's ORDER BY.
func (a *answer) compare(x, y sqltypes.Row) int {
	for _, o := range a.order {
		if c := sqltypes.Compare(x[o.col], y[o.col]); c != 0 {
			if o.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortKey renders a row's ORDER BY columns.
func (a *answer) sortKey(r sqltypes.Row) string {
	vals := make(sqltypes.Row, len(a.order))
	for i, o := range a.order {
		vals[i] = r[o.col]
	}
	return rowKey(vals)
}

// rowKeys renders rows as sorted keys, for comparing row multisets.
func rowKeys(rows []sqltypes.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

func rowKey(r sqltypes.Row) string {
	var b strings.Builder
	for j, v := range r {
		if j > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}
