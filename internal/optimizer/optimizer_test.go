package optimizer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/stats"
)

// fixedStats is a deterministic StatsProvider for optimizer unit tests.
type fixedStats map[string]*stats.TableStats

func (f fixedStats) TableStats(table string) *stats.TableStats { return f[table] }

func colStats(rows, ndv int64) *stats.ColumnStats {
	var vals []sqltypes.Value
	for i := int64(0); i < rows; i++ {
		vals = append(vals, sqltypes.NewInt(i%ndv))
	}
	return stats.BuildColumnStats(vals, rows, 16)
}

func testSetup(t *testing.T) (*catalog.Schema, fixedStats) {
	t.Helper()
	schema := catalog.NewSchema()
	mk := func(name string, rows int64, cols ...string) {
		cc := []catalog.Column{{Name: "id", Type: sqltypes.KindInt}}
		for _, c := range cols {
			cc = append(cc, catalog.Column{Name: c, Type: sqltypes.KindInt})
		}
		tbl, err := catalog.NewTable(name, cc, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	mk("big", 100000, "fk", "a", "b", "c")
	mk("small", 100, "x", "y")
	sp := fixedStats{
		"big": &stats.TableStats{RowCount: 100000, AvgRowSize: 40, Columns: map[string]*stats.ColumnStats{
			"id": colStats(2000, 2000), "fk": colStats(2000, 100), "a": colStats(2000, 50),
			"b": colStats(2000, 1000), "c": colStats(2000, 10),
		}},
		"small": &stats.TableStats{RowCount: 100, AvgRowSize: 24, Columns: map[string]*stats.ColumnStats{
			"id": colStats(100, 100), "x": colStats(100, 10), "y": colStats(100, 100),
		}},
	}
	// Fix the scaled row counts: BuildColumnStats above used sample rows.
	for _, ts := range sp {
		for _, cs := range ts.Columns {
			cs.Count = ts.RowCount
		}
	}
	return schema, sp
}

func estimate(t *testing.T, o *Optimizer, sql string, extra ...*catalog.Index) *Estimate {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	est, err := o.EstimateSelect(stmt.(*sqlparser.Select), extra)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestSmallTableDrivesJoin(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "big_fk", Table: "big", Columns: []string{"fk"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	stmt, _ := sqlparser.Parse("SELECT s.y FROM big b JOIN small s ON b.fk = s.id WHERE s.x = 3")
	p, err := o.planSelect(stmt.(*sqlparser.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	// small (filtered, 100 rows) should be the outer table, probing big via
	// the fk index.
	if p.join.order[0] != 1 {
		t.Fatalf("join order = %v (want small first)", p.join.order)
	}
	if p.join.paths[1].index == nil || p.join.paths[1].index.Name != "big_fk" {
		t.Fatalf("inner access = %+v", p.join.paths[1].Desc("big"))
	}
}

func TestStraightJoinRespectsOrder(t *testing.T) {
	schema, sp := testSetup(t)
	o := New(schema, sp)
	stmt, _ := sqlparser.Parse("SELECT STRAIGHT_JOIN s.y FROM big b, small s WHERE b.fk = s.id")
	p, err := o.planSelect(stmt.(*sqlparser.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.join.order[0] != 0 {
		t.Fatalf("straight join reordered: %v", p.join.order)
	}
}

func TestMoreSelectiveIndexWins(t *testing.T) {
	schema, sp := testSetup(t)
	// b has NDV 1000 (selective), c has NDV 10 (not selective).
	if err := schema.AddIndex(&catalog.Index{Name: "ix_c", Table: "big", Columns: []string{"c"}}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddIndex(&catalog.Index{Name: "ix_b", Table: "big", Columns: []string{"b"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	est := estimate(t, o, "SELECT a FROM big WHERE b = 5 AND c = 5")
	if len(est.Used) != 1 || est.Used[0].Index == nil || est.Used[0].Index.Name != "ix_b" {
		t.Fatalf("chose %v", est.Desc)
	}
}

func TestWiderIndexBeatsNarrowerForConjunction(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "ix_a", Table: "big", Columns: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := schema.AddIndex(&catalog.Index{Name: "ix_ab", Table: "big", Columns: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	est := estimate(t, o, "SELECT c FROM big WHERE a = 5 AND b = 7")
	if est.Used[0].Index == nil || est.Used[0].Index.Name != "ix_ab" {
		t.Fatalf("chose %v", est.Desc)
	}
	if est.Used[0].EqLen != 2 {
		t.Fatalf("eq len = %d", est.Used[0].EqLen)
	}
}

func TestRangeAfterEqPrefix(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "ix_ab", Table: "big", Columns: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	est := estimate(t, o, "SELECT c FROM big WHERE a = 5 AND b > 100")
	u := est.Used[0]
	if u.Index == nil || u.EqLen != 1 || !u.HasRange {
		t.Fatalf("access = %+v", u)
	}
}

func TestCoveringDetection(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "ix_cov", Table: "big", Columns: []string{"b", "a"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	// id is the PK so (b, a) + id covers SELECT id, a WHERE b = _.
	est := estimate(t, o, "SELECT id, a FROM big WHERE b = 5")
	if !est.Used[0].Covering {
		t.Fatalf("should be covering: %v", est.Desc)
	}
	est2 := estimate(t, o, "SELECT c FROM big WHERE b = 5")
	if est2.Used[0].Index == nil || est2.Used[0].Covering {
		t.Fatalf("expected non-covering index access: %v", est2.Desc)
	}
	if est2.Used[0].EstLookups <= 0 {
		t.Fatal("non-covering access must estimate lookups")
	}
}

func TestHypotheticalIndexOnlyInEstimates(t *testing.T) {
	schema, sp := testSetup(t)
	o := New(schema, sp)
	hypo := &catalog.Index{Name: "h", Table: "big", Columns: []string{"a"}, Hypothetical: true}
	base := estimate(t, o, "SELECT id FROM big WHERE a = 1")
	with := estimate(t, o, "SELECT id FROM big WHERE a = 1", hypo)
	if with.Cost >= base.Cost {
		t.Fatal("hypothetical index ignored")
	}
	// A hypothetical index registered in the schema must not be used for
	// executable plans.
	if err := schema.AddIndex(hypo); err != nil {
		t.Fatal(err)
	}
	again := estimate(t, o, "SELECT id FROM big WHERE a = 1")
	if again.Used[0].Index != nil {
		t.Fatal("schema-registered hypothetical index used without extras")
	}
}

func TestOrderSatisfactionLogic(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "ix_abc", Table: "big", Columns: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT id FROM big WHERE a = 1 ORDER BY b", true},
		{"SELECT id FROM big WHERE a = 1 ORDER BY b, c", true},
		{"SELECT id FROM big WHERE a = 1 ORDER BY c", false},
		{"SELECT id FROM big WHERE a = 1 AND b = 2 ORDER BY c", true},
		{"SELECT id FROM big WHERE a = 1 ORDER BY b DESC", false},
		{"SELECT id FROM big WHERE a = 1 ORDER BY a, b", true}, // a is constant
	}
	for _, c := range cases {
		stmt, _ := sqlparser.Parse(c.sql)
		sel := stmt.(*sqlparser.Select)
		info, err := queryinfo.Analyze(sel, schema)
		if err != nil {
			t.Fatal(err)
		}
		s := o.newSearch(info, o.indexConfigMode(nil, false))
		paths := s.enumeratePaths(s.ctxs[0], nil, nil)
		var ixPath *accessPath
		for _, p := range paths {
			if p.index != nil && p.index.Name == "ix_abc" {
				ixPath = p
			}
		}
		if ixPath == nil {
			t.Fatalf("%s: index path missing", c.sql)
		}
		if got := orderSatisfiedBy(ixPath, info); got != c.want {
			t.Errorf("%s: satisfied = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestGroupOrderingLogic(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "ix_abc", Table: "big", Columns: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT a, COUNT(*) FROM big GROUP BY a", true},
		{"SELECT b, a, COUNT(*) FROM big GROUP BY b, a", true}, // permutation of prefix
		{"SELECT b, COUNT(*) FROM big GROUP BY b", false},
		{"SELECT b, COUNT(*) FROM big WHERE a = 1 GROUP BY b", true},
		{"SELECT c, COUNT(*) FROM big WHERE a = 1 GROUP BY c", false},
	}
	for _, c := range cases {
		stmt, _ := sqlparser.Parse(c.sql)
		sel := stmt.(*sqlparser.Select)
		info, err := queryinfo.Analyze(sel, schema)
		if err != nil {
			t.Fatal(err)
		}
		s := o.newSearch(info, o.indexConfigMode(nil, false))
		paths := s.enumeratePaths(s.ctxs[0], nil, nil)
		var ixPath *accessPath
		for _, p := range paths {
			if p.index != nil {
				ixPath = p
			}
		}
		if ixPath == nil {
			ixPath = fullIndexPath(s.ctxs[0], &s.ctxs[0].indexes[0])
		}
		if got := groupOrderedBy(ixPath, info); got != c.want {
			t.Errorf("%s: ordered = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestCallCounting(t *testing.T) {
	schema, sp := testSetup(t)
	o := New(schema, sp)
	o.ResetCalls()
	for i := 0; i < 5; i++ {
		estimate(t, o, fmt.Sprintf("SELECT id FROM big WHERE a = %d", i))
	}
	if o.Calls() != 5 {
		t.Fatalf("calls = %d", o.Calls())
	}
	o.ResetCalls()
	if o.Calls() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGreedyFallbackManyTables(t *testing.T) {
	schema, sp := testSetup(t)
	// Build a 10-table chain join to trigger the greedy path.
	prev := "small"
	sqlFrom := "small t0"
	where := ""
	for i := 1; i < 10; i++ {
		name := fmt.Sprintf("chain%d", i)
		tbl, err := catalog.NewTable(name, []catalog.Column{
			{Name: "id", Type: sqltypes.KindInt},
			{Name: "ref", Type: sqltypes.KindInt},
		}, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		sp[name] = &stats.TableStats{RowCount: 1000, Columns: map[string]*stats.ColumnStats{
			"id": colStats(1000, 1000), "ref": colStats(1000, 100),
		}}
		sqlFrom += fmt.Sprintf(", %s t%d", name, i)
		if where != "" {
			where += " AND "
		}
		where += fmt.Sprintf("t%d.ref = t%d.id", i, i-1)
		prev = name
	}
	_ = prev
	o := New(schema, sp)
	est := estimate(t, o, "SELECT t0.y FROM "+sqlFrom+" WHERE "+where)
	if est.Cost <= 0 || len(est.Used) != 10 {
		t.Fatalf("greedy plan: cost=%v used=%d", est.Cost, len(est.Used))
	}
}

func TestEstimateDMLInsertDeleteUpdate(t *testing.T) {
	schema, sp := testSetup(t)
	if err := schema.AddIndex(&catalog.Index{Name: "ix_a", Table: "big", Columns: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	o := New(schema, sp)
	for _, sql := range []string{
		"INSERT INTO big VALUES (1, 2, 3, 4, 5)",
		"DELETE FROM big WHERE a = 3",
		"UPDATE big SET a = 9 WHERE b = 1",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		est, err := o.EstimateDML(stmt, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if est.TotalCost() <= 0 {
			t.Errorf("%s: zero cost", sql)
		}
		if _, ok := est.IndexMaintenance["big(a)"]; !ok {
			t.Errorf("%s: index maintenance missing (%v)", sql, est.IndexMaintenance)
		}
	}
	// Update that does not touch indexed columns pays no maintenance.
	stmt, _ := sqlparser.Parse("UPDATE big SET c = 1 WHERE b = 2")
	est, err := o.EstimateDML(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.IndexMaintenance) != 0 {
		t.Errorf("unexpected maintenance: %v", est.IndexMaintenance)
	}
}

// TestIndexMonotonicityProperty: adding an index to the configuration must
// never increase the best plan's estimated cost — the optimizer can always
// ignore an unhelpful index.
func TestIndexMonotonicityProperty(t *testing.T) {
	schema, sp := testSetup(t)
	o := New(schema, sp)
	queries := []string{
		"SELECT id FROM big WHERE a = 1",
		"SELECT id FROM big WHERE a = 1 AND b > 5",
		"SELECT c, COUNT(*) FROM big WHERE a = 2 GROUP BY c",
		"SELECT b.id FROM big b JOIN small s ON b.fk = s.id WHERE s.x = 1",
		"SELECT id FROM big ORDER BY b LIMIT 5",
	}
	allCols := [][]string{{"a"}, {"b"}, {"c"}, {"fk"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}, {"fk", "a"}}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		// Random base configuration, then add one random index.
		var base []*catalog.Index
		for _, cols := range allCols {
			if rng.Intn(3) == 0 {
				base = append(base, &catalog.Index{
					Name: "m_" + strings.Join(cols, "_"), Table: "big", Columns: cols, Hypothetical: true,
				})
			}
		}
		extraCols := allCols[rng.Intn(len(allCols))]
		extra := &catalog.Index{Name: "extra_ix", Table: "big", Columns: extraCols, Hypothetical: true}
		q := queries[rng.Intn(len(queries))]
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*sqlparser.Select)
		before, err := o.EstimateSelectConfig(sel, base)
		if err != nil {
			t.Fatal(err)
		}
		after, err := o.EstimateSelectConfig(sel, append(append([]*catalog.Index(nil), base...), extra))
		if err != nil {
			t.Fatal(err)
		}
		if after.Cost > before.Cost*(1+1e-9) {
			t.Fatalf("adding %v increased cost for %q: %v -> %v", extraCols, q, before.Cost, after.Cost)
		}
	}
}

// TestEmptyTableEstimates: estimation must not panic or produce negative
// costs on empty tables.
func TestEmptyTableEstimates(t *testing.T) {
	schema, _ := testSetup(t)
	empty := fixedStats{
		"big":   &stats.TableStats{RowCount: 0, Columns: map[string]*stats.ColumnStats{}},
		"small": &stats.TableStats{RowCount: 0, Columns: map[string]*stats.ColumnStats{}},
	}
	o := New(schema, empty)
	est := estimate(t, o, "SELECT id FROM big WHERE a = 1 AND b > 2 ORDER BY c LIMIT 3")
	if est.Cost < 0 {
		t.Fatalf("negative cost %v", est.Cost)
	}
	est = estimate(t, o, "SELECT b.id FROM big b JOIN small s ON b.fk = s.id")
	if est.Cost < 0 {
		t.Fatal("negative join cost")
	}
}

// TestPathMemoExact plans joins with and without the access-path memo. The
// memo key (instance, placed ∩ neighbours) must never change a pick, so the
// join order, every chosen path and every estimate match to the bit — for
// the DP search, the greedy search beyond dpLimit and STRAIGHT_JOIN.
func TestPathMemoExact(t *testing.T) {
	schema, sp := testSetup(t)
	for _, ix := range []*catalog.Index{
		{Name: "big_fk", Table: "big", Columns: []string{"fk"}},
		{Name: "big_a_fk", Table: "big", Columns: []string{"a", "fk"}},
		{Name: "big_fk_b", Table: "big", Columns: []string{"fk", "b"}},
		{Name: "small_x", Table: "small", Columns: []string{"x"}},
		{Name: "small_y_id", Table: "small", Columns: []string{"y", "id"}},
	} {
		if err := schema.AddIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	// A chain of ten instances (past dpLimit) with a second edge per link.
	chain := "SELECT s0.x FROM small s0 JOIN big b1 ON b1.fk = s0.id"
	for i := 2; i < 10; i++ {
		chain += fmt.Sprintf(" JOIN big b%d ON b%d.fk = b%d.id AND b%d.a = b%d.a", i, i, i-1, i, i-1)
	}
	queries := []string{
		"SELECT b.id FROM big b JOIN small s ON s.id = b.fk WHERE s.x = 3",
		"SELECT b1.id FROM big b1 JOIN big b2 ON b2.fk = b1.id JOIN small s ON s.id = b1.fk AND s.y = b2.a WHERE b2.b < 40",
		"SELECT s1.y FROM small s1 JOIN big b ON b.fk = s1.id JOIN small s2 ON s2.y = b.a JOIN small s3 ON s3.id = b.fk WHERE b.a = 7 AND s2.x IN (1, 2)",
		"SELECT STRAIGHT_JOIN b.id FROM small s JOIN big b ON b.fk = s.id WHERE b.b > 10",
		chain,
	}
	o := New(schema, sp)
	for _, sql := range queries {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		sel := stmt.(*sqlparser.Select)
		info, err := queryinfo.Analyze(sel, schema)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cfg := o.indexConfigMode(nil, false)
		plain := o.newSearch(info, cfg)
		plain.memo = nil
		want := plain.searchJoinOrder(sel.StraightJoin)
		got := o.newSearch(info, cfg).searchJoinOrder(sel.StraightJoin)
		render := func(r *joinResult) string {
			out := fmt.Sprintf("%v %x %x", r.order, r.cost, r.rows)
			for i, p := range r.paths {
				out += fmt.Sprintf(" | %s %x %x", p.Desc(info.Layout.Instances[r.order[i]].Alias), p.probeCost, p.outRows)
			}
			return out
		}
		if g, w := render(got), render(want); g != w {
			t.Errorf("%s\n memo: %s\nplain: %s", sql, g, w)
		}
	}
}
