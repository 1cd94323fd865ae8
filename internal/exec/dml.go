package exec

import (
	"fmt"

	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// Insert adds rows to a table. Each row must already be in full table
// column order (the engine reorders named-column inserts beforehand).
func (e *Executor) Insert(tableName string, rows []sqltypes.Row) (Stats, error) {
	var st Stats
	tbl := e.Store.Table(tableName)
	if tbl == nil {
		return st, fmt.Errorf("exec: unknown table %q", tableName)
	}
	var m storage.Metrics
	for _, row := range rows {
		if err := tbl.Insert(row, &m); err != nil {
			return st, err
		}
	}
	st.RowsWritten = m.RowWrites
	st.IndexWrites = m.IndexWrites
	st.PageReads = m.PageReads
	st.RowsSent = int64(len(rows))
	e.record(st)
	return st, nil
}

// CollectPKs runs a single-table plan and returns the encoded primary keys
// of every matching row, for two-phase UPDATE/DELETE execution.
func (e *Executor) CollectPKs(p *Plan) ([][]byte, Stats, error) {
	if len(p.Steps) != 1 {
		return nil, Stats{}, fmt.Errorf("exec: DML plan must have exactly one step, got %d", len(p.Steps))
	}
	inst := p.Layout.Instances[p.Steps[0].Instance]
	tbl := e.Store.Table(inst.Table.Name)
	if tbl == nil {
		return nil, Stats{}, fmt.Errorf("exec: unknown table %q", inst.Table.Name)
	}
	var st Stats
	var pks [][]byte
	env := make([]sqltypes.Value, p.Layout.Width)
	pkVals := make([]sqltypes.Value, len(inst.Table.PrimaryKey))
	err := e.runSteps(p, env, &st, func() error {
		for i, o := range inst.Table.PrimaryKey {
			pkVals[i] = env[inst.Base+o]
		}
		pks = append(pks, sqltypes.EncodeKey(nil, pkVals...))
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return pks, st, nil
}

// Assignment sets one column (by table ordinal) to a compiled expression
// evaluated over the single-table env row.
type Assignment struct {
	Ordinal int
	Value   CompiledExpr
}

// Update applies assignments to every row matched by the plan. It returns
// stats including the number of rows affected in RowsSent.
func (e *Executor) Update(p *Plan, assigns []Assignment) (Stats, error) {
	pks, st, err := e.CollectPKs(p)
	if err != nil {
		return st, err
	}
	inst := p.Layout.Instances[p.Steps[0].Instance]
	tbl := e.Store.Table(inst.Table.Name)
	var m storage.Metrics
	env := make([]sqltypes.Value, p.Layout.Width)
	for _, pk := range pks {
		row, ok := tbl.GetByPK(pk, &m)
		if !ok {
			continue
		}
		copy(env[inst.Base:], row)
		newRow := row.Clone()
		for _, a := range assigns {
			v, err := a.Value(env)
			if err != nil {
				return st, err
			}
			newRow[a.Ordinal] = v
		}
		if err := tbl.Update(pk, newRow, &m); err != nil {
			return st, err
		}
	}
	st.RowsRead += m.RowsRead
	st.PageReads += m.PageReads
	st.RowsWritten += m.RowWrites
	st.IndexWrites += m.IndexWrites
	st.RowsSent = int64(len(pks))
	e.record(st)
	return st, nil
}

// Delete removes every row matched by the plan.
func (e *Executor) Delete(p *Plan) (Stats, error) {
	pks, st, err := e.CollectPKs(p)
	if err != nil {
		return st, err
	}
	inst := p.Layout.Instances[p.Steps[0].Instance]
	tbl := e.Store.Table(inst.Table.Name)
	var m storage.Metrics
	for _, pk := range pks {
		tbl.DeleteByPK(pk, &m)
	}
	st.RowsRead += m.RowsRead
	st.PageReads += m.PageReads
	st.RowsWritten += m.RowWrites
	st.IndexWrites += m.IndexWrites
	st.RowsSent = int64(len(pks))
	e.record(st)
	return st, nil
}
