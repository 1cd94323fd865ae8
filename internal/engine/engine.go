// Package engine is the embedded database facade: it owns the catalog,
// row store, statistics cache, optimizer and executor, and exposes a simple
// Exec/Query API plus the clone and what-if hooks AIM builds on.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/costcache"
	"aim/internal/exec"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/optimizer"
	"aim/internal/pool"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/stats"
	"aim/internal/storage"
)

// DefaultSampleLimit bounds ANALYZE sampling per table.
const DefaultSampleLimit = 5000

// DB is one logical database.
type DB struct {
	Name      string
	Schema    *catalog.Schema
	Store     *storage.Store
	Optimizer *optimizer.Optimizer
	// WhatIf memoizes what-if estimates behind a sharded LRU; all advisor
	// costing routes through it. The engine invalidates it whenever
	// statistics or the materialized schema change.
	WhatIf     *costcache.Coster
	executor   *exec.Executor
	mu         sync.RWMutex // guards statsCache and writesSince
	statsCache map[string]*stats.TableStats
	// autoAnalyzeEvery re-collects a table's stats after this many writes.
	writesSince map[string]int
	// obs is the attached metrics registry (nil = observability off). The DB
	// is the wiring hub: SetObs fans the registry out to the optimizer, the
	// what-if cache and the executor, and Clone propagates it so shadow
	// clones aggregate into the same registry as production.
	obs *obs.Registry
	// audit is the attached decision journal (nil = journaling off). Unlike
	// obs it is NOT propagated to clones: decisions are made against the
	// production handle, and a shadow clone writing duplicate records would
	// corrupt the lineage.
	audit *audit.Journal
	// cloneGate, when set, is held around snapshot creation. COW clones must
	// be serialized with writers to this DB; an embedding server installs
	// its statement gate's write side here so shadow validation can snapshot
	// mid-traffic (the O(1) clone holds the lock for microseconds) and then
	// replay against the frozen snapshot while live DML proceeds. Clones do
	// not inherit the gate — they are private to their creator.
	cloneGate sync.Locker
}

// SetObs attaches a metrics registry to this database and its components
// (optimizer what-if latency, cost-cache gauges, executor operator
// counters). Pass nil to detach. Call before concurrent use.
func (db *DB) SetObs(r *obs.Registry) {
	db.obs = r
	db.Optimizer.SetObs(r)
	db.WhatIf.SetObs(r)
	db.executor.SetObs(r)
}

// ObsRegistry returns the attached registry, or nil when observability is
// off. Components that only hold a *DB (the advisor, the shadow validator)
// reach the registry through this.
func (db *DB) ObsRegistry() *obs.Registry { return db.obs }

// SetAudit attaches a decision journal to this database. Pass nil to detach.
// Clones never inherit it (see the field comment). Call before concurrent
// use.
func (db *DB) SetAudit(j *audit.Journal) { db.audit = j }

// SetRowOnlyExec forces (true) or lifts (false) tuple-at-a-time execution.
// The default is the vectorized batch engine for eligible plans and hash
// probes for unindexed join inners; differential tests and benchmarks pin
// the row loop's plain nested loops to compare the two engines. Clones
// inherit the setting (see cloneFrom). Call before concurrent use.
func (db *DB) SetRowOnlyExec(rowOnly bool) { db.executor.RowOnly = rowOnly }

// SetCloneGate installs a lock held around snapshot creation (nil removes
// it). Callers that interleave live writers with Clone/CloneChecked — the
// network server's tuning loop — pass the exclusive side of their write
// gate; single-threaded drivers never need one. Call before concurrent use.
func (db *DB) SetCloneGate(l sync.Locker) { db.cloneGate = l }

// AuditJournal returns the attached journal, or nil when journaling is off.
// The advisor, the shadow validator and the regression detector reach the
// journal through this; all of them tolerate nil.
func (db *DB) AuditJournal() *audit.Journal { return db.audit }

// New creates an empty database.
func New(name string) *DB {
	db := &DB{
		Name:        name,
		Schema:      catalog.NewSchema(),
		Store:       storage.NewStore(),
		statsCache:  map[string]*stats.TableStats{},
		writesSince: map[string]int{},
	}
	db.Optimizer = optimizer.New(db.Schema, db)
	db.WhatIf = costcache.NewCoster(db.Optimizer, costcache.DefaultCapacity)
	db.executor = exec.New(db.Store)
	return db
}

// TableStats implements optimizer.StatsProvider with lazy collection. It is
// safe for concurrent use; the first caller for a table collects under the
// write lock.
func (db *DB) TableStats(table string) *stats.TableStats {
	key := strings.ToLower(table)
	db.mu.RLock()
	ts, ok := db.statsCache[key]
	db.mu.RUnlock()
	if ok {
		return ts
	}
	tbl := db.Store.Table(table)
	if tbl == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ts, ok := db.statsCache[key]; ok {
		return ts // another goroutine collected while we waited
	}
	ts = stats.Collect(tbl, DefaultSampleLimit)
	db.statsCache[key] = ts
	return ts
}

// Analyze refreshes statistics for every table (or one named table).
func (db *DB) Analyze(tables ...string) {
	if len(tables) == 0 {
		for _, t := range db.Schema.Tables() {
			tables = append(tables, t.Name)
		}
	}
	db.mu.Lock()
	for _, t := range tables {
		tbl := db.Store.Table(t)
		if tbl == nil {
			continue
		}
		db.statsCache[strings.ToLower(t)] = stats.Collect(tbl, DefaultSampleLimit)
	}
	db.mu.Unlock()
	db.WhatIf.Invalidate()
}

// Result is the outcome of one statement execution.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
	Stats   exec.Stats
	// Plan annotations for SELECTs.
	PlanDesc    []string
	UsedIndexes []string
}

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// MustExec executes and panics on error — for fixtures and generators.
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("engine: %v (sql: %s)", err, sql))
	}
	return r
}

// ExecStmt executes a parsed statement.
func (db *DB) ExecStmt(stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.Select:
		return db.execSelect(s)
	case *sqlparser.Insert:
		return db.execInsert(s)
	case *sqlparser.Update, *sqlparser.Delete:
		return db.execUpdateDelete(s)
	case *sqlparser.CreateTable:
		return db.execCreateTable(s)
	case *sqlparser.CreateIndex:
		return db.CreateIndex(&catalog.Index{Name: s.Name, Table: s.Table, Columns: s.Columns})
	case *sqlparser.DropIndex:
		return db.DropIndex(s.Name)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (db *DB) execSelect(s *sqlparser.Select) (*Result, error) {
	plan, desc, err := db.Optimizer.BuildSelectPlan(s)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(s.Exprs))
	for i, se := range s.Exprs {
		switch {
		case se.Alias != "":
			cols[i] = se.Alias
		case se.Star:
			cols[i] = "*"
		default:
			cols[i] = se.Expr.SQL()
		}
	}
	res, err := db.executor.Run(plan, cols)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:     res.Columns,
		Rows:        res.Rows,
		Stats:       res.Stats,
		PlanDesc:    desc,
		UsedIndexes: plan.UsedIndexes,
	}, nil
}

func (db *DB) execInsert(s *sqlparser.Insert) (*Result, error) {
	tbl := db.Schema.Table(s.Table)
	if tbl == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	// Evaluate row expressions (must be constant).
	emptyLayout := exec.NewLayout(nil)
	rows := make([]sqltypes.Row, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		full := make(sqltypes.Row, len(tbl.Columns))
		for i := range full {
			full[i] = sqltypes.Null
		}
		if len(s.Columns) == 0 {
			if len(exprRow) != len(tbl.Columns) {
				return nil, fmt.Errorf("engine: INSERT expects %d values, got %d", len(tbl.Columns), len(exprRow))
			}
			for i, e := range exprRow {
				v, err := constEval(e, emptyLayout)
				if err != nil {
					return nil, err
				}
				full[i] = v
			}
		} else {
			if len(exprRow) != len(s.Columns) {
				return nil, fmt.Errorf("engine: INSERT expects %d values, got %d", len(s.Columns), len(exprRow))
			}
			for i, c := range s.Columns {
				ord := tbl.ColumnIndex(c)
				if ord < 0 {
					return nil, fmt.Errorf("engine: unknown column %q", c)
				}
				v, err := constEval(exprRow[i], emptyLayout)
				if err != nil {
					return nil, err
				}
				full[ord] = v
			}
		}
		rows = append(rows, full)
	}
	st, err := db.executor.Insert(s.Table, rows)
	if err != nil {
		return nil, err
	}
	db.noteWrites(s.Table, len(rows))
	return &Result{Stats: st}, nil
}

func constEval(e sqlparser.Expr, l *exec.Layout) (sqltypes.Value, error) {
	ce, err := exec.Compile(e, l)
	if err != nil {
		return sqltypes.Null, err
	}
	return ce(nil)
}

func (db *DB) execUpdateDelete(stmt sqlparser.Statement) (*Result, error) {
	plan, assigns, err := db.Optimizer.BuildDMLPlan(stmt)
	if err != nil {
		return nil, err
	}
	var st exec.Stats
	var table string
	switch s := stmt.(type) {
	case *sqlparser.Update:
		table = s.Table
		st, err = db.executor.Update(plan, assigns)
	case *sqlparser.Delete:
		table = s.Table
		st, err = db.executor.Delete(plan)
	}
	if err != nil {
		return nil, err
	}
	db.noteWrites(table, int(st.RowsSent))
	return &Result{Stats: st}, nil
}

// noteWrites invalidates cached statistics after enough churn.
func (db *DB) noteWrites(table string, n int) {
	key := strings.ToLower(table)
	invalidated := false
	db.mu.Lock()
	db.writesSince[key] += n
	if ts := db.statsCache[key]; ts != nil {
		threshold := int(ts.RowCount/5) + 100
		if db.writesSince[key] >= threshold {
			delete(db.statsCache, key)
			db.writesSince[key] = 0
			invalidated = true
		}
	}
	db.mu.Unlock()
	if invalidated {
		db.WhatIf.Invalidate()
	}
}

func (db *DB) execCreateTable(s *sqlparser.CreateTable) (*Result, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	def, err := catalog.NewTable(s.Table, cols, s.PrimaryKey)
	if err != nil {
		return nil, err
	}
	if err := db.Schema.AddTable(def); err != nil {
		return nil, err
	}
	if _, err := db.Store.CreateTable(def); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// CreateIndex registers and materializes a secondary index.
func (db *DB) CreateIndex(def *catalog.Index) (*Result, error) {
	return db.CreateIndexes([]*catalog.Index{def})
}

// buildPolicy bounds per-index build retries inside CreateIndexes: a
// transient build failure (the "engine.create_index" failpoint, or a real
// allocator/IO error in a disk-backed port) is retried with backoff before
// the whole batch rolls back.
var buildPolicy = failpoint.Policy{Attempts: 3, Base: 500 * time.Microsecond, Max: 4 * time.Millisecond, Deadline: 250 * time.Millisecond}

// CreateIndexes registers and materializes several secondary indexes in one
// batch. The per-index tree builds (scan + sort + bulk load) fan out over
// the storage worker pool — builds only read the clustered trees and each
// writes its own result slot — while schema registration, attachment and
// metric folding stay sequential in input order, so the outcome is
// byte-identical at any worker count. On any failure every index of the
// batch is rolled back.
func (db *DB) CreateIndexes(defs []*catalog.Index) (*Result, error) {
	if len(defs) == 0 {
		return &Result{}, nil
	}
	registered := 0
	rollback := func() {
		for _, def := range defs[:registered] {
			db.Schema.DropIndex(def.Name)
		}
	}
	for _, def := range defs {
		if def.Hypothetical {
			rollback()
			return nil, fmt.Errorf("engine: cannot materialize hypothetical index %q", def.Name)
		}
		if err := db.Schema.AddIndex(def); err != nil {
			rollback()
			return nil, err
		}
		registered++
	}
	built := make([]*storage.Index, len(defs))
	errs := make([]error, len(defs))
	ms := make([]storage.Metrics, len(defs))
	pool.ForEach(db.Store.Workers, len(defs), func(i int) {
		tbl := db.Store.Table(defs[i].Table)
		if tbl == nil {
			errs[i] = fmt.Errorf("engine: unknown table %q", defs[i].Table)
			return
		}
		// Per-index builds retry transient failures (the
		// "engine.create_index" failpoint stands in for them) with bounded
		// backoff; metrics reset per attempt so a retried build is not
		// double-counted.
		errs[i] = buildPolicy.Do(func() error {
			if err := failpoint.Inject("engine.create_index"); err != nil {
				return err
			}
			ms[i] = storage.Metrics{}
			var err error
			built[i], err = tbl.PrepareIndex(defs[i], &ms[i])
			return err
		})
	})
	var m storage.Metrics
	for i := range defs {
		if errs[i] == nil {
			errs[i] = db.Store.Table(defs[i].Table).AttachIndex(built[i])
		}
		if errs[i] != nil {
			for _, def := range defs[:i] {
				db.Store.Table(def.Table).DropIndex(def.Name)
			}
			rollback()
			return nil, errs[i]
		}
		m.Add(ms[i])
	}
	db.WhatIf.Invalidate()
	return &Result{Stats: exec.Stats{RowsRead: m.RowsRead, PageReads: m.PageReads, IndexWrites: m.IndexWrites}}, nil
}

// DropIndex removes a secondary index from the schema and store. The
// "engine.drop_index" failpoint fires before any mutation, so an injected
// drop failure leaves the index fully intact (regression.Revert retries it).
func (db *DB) DropIndex(name string) (*Result, error) {
	ix := db.Schema.Index(name)
	if ix == nil {
		return nil, fmt.Errorf("engine: unknown index %q", name)
	}
	if err := failpoint.Inject("engine.drop_index"); err != nil {
		return nil, err
	}
	db.Schema.DropIndex(name)
	if tbl := db.Store.Table(ix.Table); tbl != nil {
		tbl.DropIndex(name)
	}
	db.WhatIf.Invalidate()
	return &Result{}, nil
}

// IndexSizeBytes returns the materialized size of an index, or an estimate
// from statistics when the index is hypothetical.
func (db *DB) IndexSizeBytes(def *catalog.Index) int64 {
	if tbl := db.Store.Table(def.Table); tbl != nil {
		if ix := tbl.Index(def.Name); ix != nil {
			return ix.SizeBytes()
		}
	}
	return db.EstimateIndexSize(def)
}

// EstimateIndexSize sizes a (possibly hypothetical) index from statistics:
// per entry, the key columns' average widths plus the primary key twice
// (suffix + payload) plus fixed overhead.
func (db *DB) EstimateIndexSize(def *catalog.Index) int64 {
	ts := db.TableStats(def.Table)
	tbl := db.Schema.Table(def.Table)
	if ts == nil || tbl == nil || ts.RowCount == 0 {
		return 0
	}
	perEntry := 16.0
	width := func(col string) float64 {
		switch tbl.Columns[tbl.ColumnIndex(col)].Type {
		case sqltypes.KindString, sqltypes.KindBytes:
			return 18 // typical short-string payload
		default:
			return 8
		}
	}
	for _, c := range def.Columns {
		perEntry += width(c)
	}
	for _, c := range tbl.PrimaryKeyNames() {
		perEntry += 2 * width(c)
	}
	return int64(perEntry * float64(ts.RowCount))
}

// TotalIndexBytes returns the materialized secondary index footprint.
func (db *DB) TotalIndexBytes() int64 { return db.Store.TotalIndexBytes() }

// Clone produces an isolated copy of the database (schema, data, indexes,
// statistics) as an O(1) copy-on-write snapshot: the store shares every
// tree node with the original until one side writes. This is the MyShadow
// substrate — experiments run on the clone never touch the original, and
// reads on the clone stay byte-stable under live DML on the original.
// Clone must be serialized with writers to this DB; the returned handle is
// then fully independent.
func (db *DB) Clone(name string) *DB {
	if db.cloneGate != nil {
		db.cloneGate.Lock()
		defer db.cloneGate.Unlock()
	}
	return db.cloneFrom(name, db.Store.Clone())
}

// CloneChecked is Clone behind the storage layer's "storage.clone"
// failpoint. The continuous-tuning path (shadow validation) clones through
// this so a refused snapshot surfaces as an error the caller can retry or
// degrade on, instead of an invariant the loop silently assumes.
func (db *DB) CloneChecked(name string) (*DB, error) {
	if db.cloneGate != nil {
		db.cloneGate.Lock()
		defer db.cloneGate.Unlock()
	}
	st, err := db.Store.CloneChecked()
	if err != nil {
		return nil, err
	}
	return db.cloneFrom(name, st), nil
}

// Release retires a snapshot database for the storage.snapshots_live gauge.
// Idempotent; a no-op on non-snapshot databases. Dropping a snapshot without
// releasing it is safe — this only keeps the gauge honest.
func (db *DB) Release() { db.Store.Release() }

func (db *DB) cloneFrom(name string, store *storage.Store) *DB {
	out := &DB{
		Name:        name,
		Schema:      db.Schema.Clone(),
		Store:       store,
		statsCache:  map[string]*stats.TableStats{},
		writesSince: map[string]int{},
	}
	db.mu.RLock()
	for k, v := range db.statsCache {
		out.statsCache[k] = v
	}
	db.mu.RUnlock()
	out.Optimizer = optimizer.New(out.Schema, out)
	out.WhatIf = costcache.NewCoster(out.Optimizer, costcache.DefaultCapacity)
	out.executor = exec.New(out.Store)
	// Shadow replay must execute exactly like production, so the engine
	// selection travels with the clone.
	out.executor.RowOnly = db.executor.RowOnly
	if db.obs != nil {
		out.SetObs(db.obs)
	}
	return out
}

// Explain plans a SELECT and returns the access descriptions without
// executing it.
func (db *DB) Explain(sql string) ([]string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT")
	}
	_, desc, err := db.Optimizer.BuildSelectPlan(sel)
	return desc, err
}

// InsertRows bulk-loads rows (already in full table column order) without
// per-row SQL parsing. Generators use it to build benchmark datasets;
// batches arriving in primary-key order take the storage layer's O(n)
// bulk-append path.
func (db *DB) InsertRows(table string, rows []sqltypes.Row) error {
	tbl := db.Store.Table(table)
	if tbl == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	if err := tbl.InsertBatch(rows, nil); err != nil {
		return err
	}
	db.noteWrites(table, len(rows))
	return nil
}
