package exec

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aim/internal/obs"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// whereExpr parses a WHERE clause and returns its source expression, for
// plans that want both the compiled closure and the batch-compilable source.
func whereExpr(t testing.TB, where string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT * FROM x WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparser.Select).Where
}

// renderResult serializes a Result byte-exactly: every value through the
// order-preserving key encoding (so 1 vs 1.0 vs "1" render differently) plus
// the full Stats struct. Two results render equal iff rows, row order, and
// every physical counter match.
func renderResult(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(hex.EncodeToString(sqltypes.EncodeKey(nil, r...)))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%+v\n", res.Stats)
	return b.String()
}

// engineOnlyCounters are the exec.* counters that name the physical strategy
// (batches, hash tables) rather than the priced plan's work. Every other
// counter must agree between the engines.
var engineOnlyCounters = map[string]bool{
	"exec.batch_statements": true,
	"exec.batches":          true,
	"exec.hash_builds":      true,
	"exec.hash_probes":      true,
}

// renderCounters serializes every counter of the snapshot except the
// engine-only ones, sorted by name.
func renderCounters(snap *obs.Snapshot) string {
	var names []string
	for name := range snap.Counters {
		if !engineOnlyCounters[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%d\n", name, snap.Counters[name])
	}
	return b.String()
}

// runBothEngines executes the plan on the row engine and the batch engine,
// each with observability on and off, and requires all four results to be
// byte-identical. It returns the batch-engine result.
func runBothEngines(t testing.TB, store *storage.Store, p *Plan) *Result {
	t.Helper()
	res, _ := runEngines(t, store, p)
	return res
}

// runEngines is runBothEngines that also requires the exec.* counters of the
// two observed runs to agree (engine-only counters aside), and returns the
// default engine's counter snapshot.
func runEngines(t testing.TB, store *storage.Store, p *Plan) (*Result, *obs.Snapshot) {
	t.Helper()
	var want, wantCounters string
	var out *Result
	var snap *obs.Snapshot
	for _, rowOnly := range []bool{true, false} {
		for _, withObs := range []bool{false, true} {
			ex := New(store)
			ex.RowOnly = rowOnly
			var reg *obs.Registry
			if withObs {
				reg = obs.NewRegistry()
				ex.SetObs(reg)
			}
			res, err := ex.Run(p, nil)
			if err != nil {
				t.Fatalf("rowOnly=%v obs=%v: %v", rowOnly, withObs, err)
			}
			got := renderResult(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("engine divergence (rowOnly=%v obs=%v)\n--- row engine ---\n%s--- this run ---\n%s",
					rowOnly, withObs, want, got)
			}
			out = res
			if withObs {
				snap = reg.Snapshot()
				counters := renderCounters(snap)
				if wantCounters == "" {
					wantCounters = counters
				} else if counters != wantCounters {
					t.Fatalf("exec counter divergence\n--- row engine ---\n%s--- default engine ---\n%s",
						wantCounters, counters)
				}
			}
		}
	}
	return out, snap
}

// vecOutputs builds direct-copy output specs (the batch projector fast path).
func vecOutputs(t testing.TB, l *Layout, refs ...string) []OutputSpec {
	t.Helper()
	out := make([]OutputSpec, len(refs))
	for i, r := range refs {
		qual := ""
		if idx := strings.IndexByte(r, '.'); idx >= 0 {
			qual, r = r[:idx], r[idx+1:]
		}
		off, err := l.Resolve(qual, r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ColOutput(off)
	}
	return out
}

// TestEngineDifferential pins the determinism contract of the vectorized
// engine: for every supported plan shape, Result rows and Stats counters are
// byte-identical to the row engine's, with observability on or off, and so
// are the exec.* counters other than the engine-only ones. Cases cover the
// vectorized predicate kernels (FilterSrc set, vectorizable), the per-row
// closure fallback (no source expression, or a shape the batch compiler
// rejects) and unindexed joins, which the default engine serves from hash
// probes where their filter allows.
func TestEngineDifferential(t *testing.T) {
	store, schema := fixture(t)
	l := singleLayout(schema, "orders")

	filtered := func(step Step, where string, vectorizable bool) Step {
		step.Filter = compileWhere(t, l, where)
		if vectorizable {
			step.FilterSrc = whereExpr(t, where)
		}
		return step
	}
	nullLit := Literal(sqltypes.Null)
	loPaid := Literal(sqltypes.NewString("paid"))
	hiShipped := Literal(sqltypes.NewString("shipped"))

	cases := []struct {
		name string
		plan *Plan
	}{
		{"full-scan", &Plan{Layout: l,
			Steps:  []Step{{Instance: 0}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"full-scan-vec-filter", &Plan{Layout: l,
			Steps:  []Step{filtered(Step{Instance: 0}, "cust_id = 5 AND status != 'paid'", true)},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"full-scan-vec-or-not-between", &Plan{Layout: l,
			Steps: []Step{filtered(Step{Instance: 0},
				"(status BETWEEN 'paid' AND 'shipped' OR NOT (cust_id < 20)) AND status LIKE 'p%'", true)},
			Output: vecOutputs(t, l, "id", "status", "cust_id"), Limit: -1}},
		{"full-scan-vec-in-isnull", &Plan{Layout: l,
			Steps: []Step{filtered(Step{Instance: 0},
				"status IN ('paid', 'done') AND amount IS NOT NULL", true)},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"full-scan-fallback-arith", &Plan{Layout: l,
			// Arithmetic is not batch-compilable: exercises the closure fallback.
			Steps:  []Step{filtered(Step{Instance: 0}, "amount + 1 > 300", true)},
			Output: vecOutputs(t, l, "id", "amount"), Limit: -1}},
		{"full-scan-closure-only", &Plan{Layout: l,
			// No FilterSrc at all (hand-assembled plan): closure fallback.
			Steps:  []Step{filtered(Step{Instance: 0}, "status = 'done'", false)},
			Output: colOutput(t, l, "id"), Limit: -1}},
		{"index-eq", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5)), Literal(sqltypes.NewString("paid"))}}},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"index-eq-null-key", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{nullLit}}},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"index-prefix-scan", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(7))}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"index-range-inc-exc", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				Range:  &RangeSpec{Lo: &loPaid, Hi: &hiShipped, LoInc: true, HiInc: false}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"index-range-exc-inc", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				Range:  &RangeSpec{Lo: &loPaid, Hi: &hiShipped, LoInc: false, HiInc: true}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"index-range-null-bound", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				Range:  &RangeSpec{Lo: &nullLit, LoInc: true}}},
			Output: vecOutputs(t, l, "id"), Limit: -1}},
		{"covering", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))}, Covering: true}},
			Output: vecOutputs(t, l, "cust_id", "status", "id"), Limit: -1}},
		{"icp", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(4))},
				ICP:    compileWhere(t, l, "status = 'paid'"),
				ICPSrc: whereExpr(t, "status = 'paid'")}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"icp-plus-residual", &Plan{Layout: l,
			Steps: []Step{filtered(Step{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				ICP:    compileWhere(t, l, "status >= 'paid'"),
				ICPSrc: whereExpr(t, "status >= 'paid'")},
				"amount > 100", true)},
			Output: vecOutputs(t, l, "id", "status", "amount"), Limit: -1}},
		{"in-multirange", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))},
				In: []KeySource{Literal(sqltypes.NewString("shipped")),
					Literal(sqltypes.NewString("paid")),
					Literal(sqltypes.NewString("paid")), nullLit}}},
			Output: vecOutputs(t, l, "id", "status"), Limit: -1}},
		{"group-hash", &Plan{Layout: l,
			Steps:   []Step{filtered(Step{Instance: 0}, "cust_id < 30", true)},
			Grouped: true,
			GroupBy: []CompiledExpr{argExpr(t, l, "status")},
			Aggs: []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: argExpr(t, l, "amount")},
				{Func: AggMin, Arg: argExpr(t, l, "id")}, {Func: AggMax, Arg: argExpr(t, l, "id")},
				{Func: AggAvg, Arg: argExpr(t, l, "amount")}},
			Output: append([]OutputSpec{vecOutputs(t, l, "status")[0]},
				OutputSpec{Agg: 0}, OutputSpec{Agg: 1}, OutputSpec{Agg: 2},
				OutputSpec{Agg: 3}, OutputSpec{Agg: 4}),
			Limit: -1}},
		{"group-hash-fastpath", &Plan{Layout: l,
			// GroupByCols/ArgCol set (as the optimizer emits): exercises the
			// batch aggregation fast path against the closure-driven row path.
			Steps:       []Step{filtered(Step{Instance: 0}, "cust_id < 30", true)},
			Grouped:     true,
			GroupBy:     []CompiledExpr{argExpr(t, l, "status")},
			GroupByCols: []int{colOff(t, l, "status") + 1},
			Aggs: []AggSpec{{Func: AggCount},
				{Func: AggSum, Arg: argExpr(t, l, "amount"), ArgCol: colOff(t, l, "amount") + 1},
				{Func: AggMin, Arg: argExpr(t, l, "id"), ArgCol: colOff(t, l, "id") + 1},
				{Func: AggMax, Arg: argExpr(t, l, "id"), ArgCol: colOff(t, l, "id") + 1}},
			Output: append(vecOutputs(t, l, "status"),
				OutputSpec{Agg: 0}, OutputSpec{Agg: 1}, OutputSpec{Agg: 2}, OutputSpec{Agg: 3}),
			Limit: -1}},
		{"group-empty-input", &Plan{Layout: l,
			Steps:   []Step{filtered(Step{Instance: 0}, "cust_id = 9999", true)},
			Grouped: true,
			Aggs:    []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: argExpr(t, l, "amount")}},
			Output:  []OutputSpec{{Agg: 0}, {Agg: 1}},
			Limit:   -1}},
		{"group-empty-null-eqkey", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{nullLit}}},
			Grouped: true,
			Aggs:    []AggSpec{{Func: AggCount}},
			Output:  []OutputSpec{{Agg: 0}},
			Limit:   -1}},
		{"group-stream", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))}}},
			Grouped: true, GroupOrdered: true,
			GroupBy: []CompiledExpr{argExpr(t, l, "status")},
			Aggs:    []AggSpec{{Func: AggCount}},
			Output:  append(vecOutputs(t, l, "status"), OutputSpec{Agg: 0}),
			Limit:   -1}},
		{"distinct-order-limit-offset", &Plan{Layout: l,
			Steps:    []Step{filtered(Step{Instance: 0}, "cust_id < 8", true)},
			Output:   vecOutputs(t, l, "status", "cust_id"),
			Distinct: true,
			OrderBy:  []OrderSpec{{Col: 1}, {Col: 0, Desc: true}},
			Limit:    5, Offset: 2}},
		{"order-satisfied", &Plan{Layout: l,
			Steps: []Step{{Instance: 0, IndexName: "o_cust_status",
				EqKeys: []KeySource{Literal(sqltypes.NewInt(5))}}},
			Output:         vecOutputs(t, l, "status", "id"),
			OrderBy:        []OrderSpec{{Col: 0}},
			OrderSatisfied: true,
			Limit:          -1}},
		{"hidden-tail", &Plan{Layout: l,
			Steps:      []Step{filtered(Step{Instance: 0}, "cust_id = 5", true)},
			Output:     vecOutputs(t, l, "status", "amount"),
			HiddenTail: 1,
			OrderBy:    []OrderSpec{{Col: 1, Desc: true}},
			Limit:      -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBothEngines(t, store, tc.plan)
		})
	}

	// Unindexed joins: the row engine's nested loop against the default
	// engine's hash probes, including the shapes that must not hash.
	jstore, jschema := joinFixture(t)
	for _, tc := range joinDifferentialCases(t, jschema) {
		t.Run("join-"+tc.name, func(t *testing.T) { checkHashed(t, jstore, tc) })
	}
}

func colOff(t testing.TB, l *Layout, col string) int {
	t.Helper()
	off, err := l.Resolve("", col)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// argExpr compiles a bare column reference as an aggregate/group argument.
func argExpr(t testing.TB, l *Layout, col string) CompiledExpr {
	t.Helper()
	off, err := l.Resolve("", col)
	if err != nil {
		t.Fatal(err)
	}
	return func(env []sqltypes.Value) (sqltypes.Value, error) { return env[off], nil }
}

// TestDistinctDedupesVisiblePrefixOnly is the regression test for DISTINCT
// interacting with hidden ORDER BY columns: SELECT DISTINCT status ... ORDER
// BY id must dedupe on status alone, not on (status, hidden id). The old
// pipeline deduped the full row, so every (status, id) pair was unique and
// all 400 rows survived.
func TestDistinctDedupesVisiblePrefixOnly(t *testing.T) {
	store, schema := fixture(t)
	l := singleLayout(schema, "orders")
	p := &Plan{
		Layout:     l,
		Steps:      []Step{{Instance: 0}},
		Output:     vecOutputs(t, l, "status", "id"),
		HiddenTail: 1,
		Distinct:   true,
		OrderBy:    []OrderSpec{{Col: 1}},
		Limit:      -1,
	}
	res := runBothEngines(t, store, p)
	if len(res.Rows) != 4 {
		t.Fatalf("DISTINCT status rows = %d, want 4", len(res.Rows))
	}
	// First occurrence wins, so the surviving hidden ids are 0..3 and the
	// sorted statuses follow insertion order of the status cycle.
	want := []string{"new", "paid", "shipped", "done"}
	for i, r := range res.Rows {
		if len(r) != 1 {
			t.Fatalf("hidden tail not trimmed: row %v", r)
		}
		if r[0].Str() != want[i] {
			t.Errorf("row %d = %q, want %q", i, r[0].Str(), want[i])
		}
	}
}

// TestScanBoundsContract pins the fixed scanBounds behavior: hiInc is the
// caller's real inclusivity (no 0xFF successor fabrication), prefix-only
// scans are inclusive on the prefix, and NULL range bounds mark the scan
// statically empty.
func TestScanBoundsContract(t *testing.T) {
	five := sqltypes.NewInt(5)
	paid := sqltypes.NewString("paid")
	base := sqltypes.EncodeKey(nil, five)

	ksPaid := Literal(paid)
	ksNull := Literal(sqltypes.Null)

	lo, hi, hiInc, empty := scanBounds([]sqltypes.Value{five}, &RangeSpec{Hi: &ksPaid, HiInc: true}, nil)
	if empty || !hiInc {
		t.Fatalf("inclusive hi: hiInc=%v empty=%v, want true/false", hiInc, empty)
	}
	wantHi := sqltypes.EncodeKey(append([]byte(nil), base...), paid)
	if string(hi) != string(wantHi) {
		t.Fatalf("hi = %x, want exact encoded bound %x (no successor byte)", hi, wantHi)
	}
	if string(lo) != string(base) {
		t.Fatalf("lo = %x, want prefix %x", lo, base)
	}

	_, _, hiInc, _ = scanBounds([]sqltypes.Value{five}, &RangeSpec{Hi: &ksPaid, HiInc: false}, nil)
	if hiInc {
		t.Fatal("exclusive hi reported inclusive")
	}

	lo, hi, hiInc, empty = scanBounds([]sqltypes.Value{five}, nil, nil)
	if empty || !hiInc || string(lo) != string(base) || string(hi) != string(base) {
		t.Fatalf("prefix-only scan: lo=%x hi=%x hiInc=%v empty=%v", lo, hi, hiInc, empty)
	}

	for _, rng := range []*RangeSpec{{Lo: &ksNull, LoInc: true}, {Hi: &ksNull, HiInc: true}} {
		if _, _, _, empty := scanBounds([]sqltypes.Value{five}, rng, nil); !empty {
			t.Fatalf("NULL bound %+v not marked empty", rng)
		}
	}
}

// FuzzExecScanOracle executes randomized range/IN/ICP index plans on both
// engines and checks the produced row SET (order-independent) against a
// full-scan-plus-filter oracle evaluating the equivalent WHERE clause — and
// checks row-order and Stats parity between engines for each plan. It is the
// property-test half of the differential suite and runs in fuzzsmoke.
func FuzzExecScanOracle(f *testing.F) {
	store, schema := fixture(f)
	l := singleLayout(schema, "orders")
	statuses := []string{"aaa", "done", "new", "paid", "shipped", "zzz"}

	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		cust := rng.Intn(45) // some values past the 0..39 domain
		step := Step{Instance: 0, IndexName: "o_cust_status",
			EqKeys: []KeySource{Literal(sqltypes.NewInt(int64(cust)))}}
		conds := []string{fmt.Sprintf("cust_id = %d", cust)}

		switch rng.Intn(4) {
		case 0: // prefix only
		case 1: // range on status, random bounds and inclusivity
			spec := &RangeSpec{LoInc: rng.Intn(2) == 0, HiInc: rng.Intn(2) == 0}
			if rng.Intn(3) > 0 {
				v := statuses[rng.Intn(len(statuses))]
				ks := Literal(sqltypes.NewString(v))
				spec.Lo = &ks
				op := ">"
				if spec.LoInc {
					op = ">="
				}
				conds = append(conds, fmt.Sprintf("status %s '%s'", op, v))
			}
			if rng.Intn(3) > 0 || spec.Lo == nil {
				v := statuses[rng.Intn(len(statuses))]
				ks := Literal(sqltypes.NewString(v))
				spec.Hi = &ks
				op := "<"
				if spec.HiInc {
					op = "<="
				}
				conds = append(conds, fmt.Sprintf("status %s '%s'", op, v))
			}
			step.Range = spec
		case 2: // IN multi-range with duplicates
			n := 1 + rng.Intn(3)
			var quoted []string
			for i := 0; i < n; i++ {
				v := statuses[rng.Intn(len(statuses))]
				step.In = append(step.In, Literal(sqltypes.NewString(v)))
				quoted = append(quoted, "'"+v+"'")
			}
			step.In = append(step.In, step.In[0]) // duplicate
			quoted = append(quoted, quoted[0])
			conds = append(conds, "status IN ("+strings.Join(quoted, ", ")+")")
		case 3: // full eq on both index columns
			v := statuses[rng.Intn(len(statuses))]
			step.EqKeys = append(step.EqKeys, Literal(sqltypes.NewString(v)))
			conds = append(conds, fmt.Sprintf("status = '%s'", v))
		}

		if rng.Intn(2) == 0 {
			icp := fmt.Sprintf("status != '%s'", statuses[rng.Intn(len(statuses))])
			step.ICP = compileWhere(t, l, icp)
			step.ICPSrc = whereExpr(t, icp)
			conds = append(conds, icp)
		}
		if rng.Intn(2) == 0 {
			res := fmt.Sprintf("amount <= %d", rng.Intn(700))
			step.Filter = compileWhere(t, l, res)
			step.FilterSrc = whereExpr(t, res)
			conds = append(conds, res)
		}

		outCols := []string{"id", "cust_id", "status", "amount"}
		indexPlan := &Plan{Layout: l, Steps: []Step{step},
			Output: vecOutputs(t, l, outCols...), Limit: -1}
		where := strings.Join(conds, " AND ")
		oraclePlan := &Plan{Layout: l,
			Steps: []Step{{Instance: 0,
				Filter:    compileWhere(t, l, where),
				FilterSrc: whereExpr(t, where)}},
			Output: vecOutputs(t, l, outCols...), Limit: -1}

		// Engine parity (rows, order, Stats) per plan; then set equality
		// between the index path and the oracle.
		got := runBothEngines(t, store, indexPlan)
		want := runBothEngines(t, store, oraclePlan)
		if gs, ws := sortedRowSet(got), sortedRowSet(want); gs != ws {
			t.Fatalf("index plan row set diverges from full-scan oracle\nWHERE %s\n--- index ---\n%s--- oracle ---\n%s",
				where, gs, ws)
		}
	})
}

func sortedRowSet(res *Result) string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = hex.EncodeToString(sqltypes.EncodeKey(nil, r...))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}
