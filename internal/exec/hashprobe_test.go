package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/obs"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// joinFixture builds four tables without secondary indexes, so every join
// inner is a full clustered scan:
//
//   - r (60 rows): the outer side. k is INT with NULLs, f FLOAT with a NaN,
//     s STRING with NULLs.
//   - q (80 rows): the inner side. k mixes INT, FLOAT and STRING values with
//     NULLs and duplicates; f holds integral floats, x.5 floats, NULLs and a
//     -0; s mixes STRING, BYTES and NULLs.
//   - z (30 rows): a third table whose f holds a NaN.
//   - e: empty.
func joinFixture(t testing.TB) (*storage.Store, *catalog.Schema) {
	t.Helper()
	schema := catalog.NewSchema()
	store := storage.NewStore()
	// Declared column types are nominal: storage does not enforce them, which
	// lets one key column mix kinds.
	mk := func(name string, cols ...string) *storage.Table {
		defs := make([]catalog.Column, len(cols))
		for i, c := range cols {
			defs[i] = catalog.Column{Name: c, Type: sqltypes.KindInt}
		}
		def, err := catalog.NewTable(name, defs, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		if err := schema.AddTable(def); err != nil {
			t.Fatal(err)
		}
		tbl, err := store.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	insert := func(tbl *storage.Table, row ...sqltypes.Value) {
		if err := tbl.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	iv, fv, sv := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	null := sqltypes.Null
	letters := []string{"a", "b", "c", "d", "x"}

	r := mk("r", "id", "k", "f", "s", "v")
	for i := int64(0); i < 60; i++ {
		k, f, s := iv(i%9), fv(float64(i%9)), sv(letters[i%4])
		if i%6 == 0 {
			k = null
		}
		if i == 13 {
			f = fv(math.NaN())
		}
		if i%7 == 0 {
			s = null
		}
		insert(r, iv(i), k, f, s, iv(i))
	}

	q := mk("q", "id", "k", "f", "s", "w")
	for i := int64(0); i < 80; i++ {
		var k, f, s sqltypes.Value
		switch {
		case i%8 == 0:
			k = null
		case i%10 == 9:
			k = fv(float64(i % 11)) // a FLOAT in an INT column
		case i%17 == 3:
			k = sv("3") // a string never equals the number 3
		default:
			k = iv(i % 11)
		}
		switch i % 3 {
		case 0:
			f = fv(float64(i % 9))
		case 1:
			f = fv(float64(i%9) + 0.5)
		default:
			f = null
		}
		if i == 4 {
			f = fv(math.Copysign(0, -1)) // -0 equals 0
		}
		switch {
		case i%5 == 0:
			s = null
		case i%6 == 1:
			s = sqltypes.NewBytes([]byte(letters[i%5])) // BYTES equal STRINGs bytewise
		default:
			s = sv(letters[i%5])
		}
		insert(q, iv(i), k, f, s, iv(i%13))
	}

	z := mk("z", "id", "k", "f", "tag")
	for i := int64(0); i < 30; i++ {
		f := fv(float64(i % 5))
		if i == 7 {
			f = fv(math.NaN())
		}
		insert(z, iv(i), iv(i%13), f, sv(letters[i%5]))
	}

	mk("e", "id", "k")
	return store, schema
}

// joinLayout lays out the named fixture tables, aliased by their names, in
// the given FROM order.
func joinLayout(schema *catalog.Schema, tables ...string) *Layout {
	insts := make([]Instance, len(tables))
	for i, name := range tables {
		insts[i] = Instance{Alias: name, Table: schema.Table(name)}
	}
	return NewLayout(insts)
}

// scanStep is a full clustered scan of instance inst filtered by where, with
// both the compiled closure and the source expression set, as the optimizer
// emits them. An empty where leaves the step unfiltered.
func scanStep(t testing.TB, l *Layout, inst int, where string) Step {
	t.Helper()
	step := Step{Instance: inst}
	if where != "" {
		step.Filter = compileWhere(t, l, where)
		step.FilterSrc = whereExpr(t, where)
	}
	return step
}

type joinCase struct {
	name string
	plan *Plan
	// builds is how many hash tables the default engine must build; 0 means
	// every probe stays on the nested loop.
	builds int64
}

// joinDifferentialCases are the unindexed join shapes of the differential
// suite.
func joinDifferentialCases(t testing.TB, schema *catalog.Schema) []joinCase {
	rq := joinLayout(schema, "r", "q")
	rqz := joinLayout(schema, "r", "q", "z")
	rz := joinLayout(schema, "r", "z")
	re := joinLayout(schema, "r", "e")
	eq := joinLayout(schema, "e", "q")

	g, w := qualOff(t, rq, "r.k"), qualOff(t, rq, "q.w")
	grouped := &Plan{Layout: rq, Grouped: true,
		Steps:   []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.k = r.k")},
		GroupBy: []CompiledExpr{func(env []sqltypes.Value) (sqltypes.Value, error) { return env[g], nil }},
		Aggs: []AggSpec{{Func: AggCount},
			{Func: AggSum, Arg: func(env []sqltypes.Value) (sqltypes.Value, error) { return env[w], nil }}},
		Output: []OutputSpec{ColOutput(g), {Agg: 0}, {Agg: 1}},
		Limit:  -1}

	return []joinCase{
		{"dup-and-null-keys", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.k = r.k")},
			Output: vecOutputs(t, rq, "r.id", "q.id", "q.k"), Limit: -1}, 1},
		{"reversed-conjunct-extra-filter", &Plan{Layout: rq,
			Steps: []Step{scanStep(t, rq, 0, "r.v < 40"),
				scanStep(t, rq, 1, "r.k = q.k AND (q.w BETWEEN 2 AND 9 OR q.s IS NULL) AND NOT q.s LIKE 'b%'")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 1},
		{"empty-outer", &Plan{Layout: eq,
			Steps:  []Step{scanStep(t, eq, 0, ""), scanStep(t, eq, 1, "q.k = e.k")},
			Output: vecOutputs(t, eq, "e.id", "q.id"), Limit: -1}, 0},
		{"single-probe-no-build", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, "r.v = 5"), scanStep(t, rq, 1, "q.k = r.k")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 0},
		{"filtered-empty-outer", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, "r.v > 1000"), scanStep(t, rq, 1, "q.k = r.k")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 0},
		{"empty-inner", &Plan{Layout: re,
			Steps:  []Step{scanStep(t, re, 0, ""), scanStep(t, re, 1, "e.k = r.k")},
			Output: vecOutputs(t, re, "r.id", "e.id"), Limit: -1}, 1},
		{"int-float-keys", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.f = r.k")},
			Output: vecOutputs(t, rq, "r.id", "q.id", "q.f"), Limit: -1}, 1},
		{"string-bytes-keys", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.s = r.s AND q.w != 4")},
			Output: vecOutputs(t, rq, "r.id", "q.id", "q.s"), Limit: -1}, 1},
		{"composite-keys", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.k = r.k AND q.s = r.s")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 1},
		{"nan-probe-key", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.f = r.f")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 1},
		{"nan-inner-key-nested-loop", &Plan{Layout: rz,
			Steps:  []Step{scanStep(t, rz, 0, ""), scanStep(t, rz, 1, "z.f = r.k")},
			Output: vecOutputs(t, rz, "r.id", "z.id"), Limit: -1}, 0},
		{"three-way-two-hashed", &Plan{Layout: rqz,
			Steps: []Step{scanStep(t, rqz, 0, "r.v < 30"), scanStep(t, rqz, 1, "q.k = r.k"),
				scanStep(t, rqz, 2, "z.k = q.w AND z.tag != 'c'")},
			Output: vecOutputs(t, rqz, "r.id", "q.id", "z.id"), Limit: -1}, 2},
		{"limit-stops-in-hashed-step", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.k = r.k")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: 9, Offset: 3}, 1},
		{"limit-stops-in-later-step", &Plan{Layout: rqz,
			Steps: []Step{scanStep(t, rqz, 0, ""), scanStep(t, rqz, 1, "q.k = r.k"),
				{Instance: 2, EqKeys: []KeySource{SlotRef(qualOff(t, rqz, "q.w"))}}},
			Output: vecOutputs(t, rqz, "r.id", "q.id", "z.id"), Limit: 11}, 1},
		{"group-by-over-hashed-join", grouped, 1},
		{"arithmetic-filter-nested-loop", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, ""), scanStep(t, rq, 1, "q.k = r.k AND q.w + 1 > 3")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 0},
		{"non-equi-join-nested-loop", &Plan{Layout: rq,
			Steps:  []Step{scanStep(t, rq, 0, "r.v < 10"), scanStep(t, rq, 1, "q.k < r.k")},
			Output: vecOutputs(t, rq, "r.id", "q.id"), Limit: -1}, 0},
	}
}

func qualOff(t testing.TB, l *Layout, ref string) int {
	t.Helper()
	qual, col, _ := strings.Cut(ref, ".")
	off, err := l.Resolve(qual, col)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// checkHashed runs the join case on both engines and checks that the default
// engine took the path the case expects.
func checkHashed(t *testing.T, store *storage.Store, tc joinCase) {
	_, snap := runEngines(t, store, tc.plan)
	builds, probes := snap.Counters["exec.hash_builds"], snap.Counters["exec.hash_probes"]
	if builds != tc.builds || (builds > 0) != (probes > 0) {
		t.Fatalf("exec.hash_builds = %d, exec.hash_probes = %d; want %d builds", builds, probes, tc.builds)
	}
}

// TestHashProbeCountersAllocFree pins the hash counters as allocation-free:
// with no registry attached a hashed join allocates exactly as much as with
// one attached.
func TestHashProbeCountersAllocFree(t *testing.T) {
	store, schema := joinFixture(t)
	l := joinLayout(schema, "r", "q")
	p := &Plan{Layout: l,
		Steps:  []Step{scanStep(t, l, 0, ""), scanStep(t, l, 1, "q.k = r.k")},
		Output: vecOutputs(t, l, "r.id", "q.id"), Limit: -1}
	allocs := func(reg *obs.Registry) float64 {
		ex := New(store)
		ex.SetObs(reg)
		return testing.AllocsPerRun(20, func() {
			if _, err := ex.Run(p, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	reg := obs.NewRegistry()
	off, on := allocs(nil), allocs(reg)
	if off != on {
		t.Fatalf("allocs per hashed run: %v with no registry, %v with one", off, on)
	}
	if got := reg.Snapshot().Counters["exec.hash_builds"]; got == 0 {
		t.Fatal("the plan never built a hash table")
	}
}

// FuzzExecJoinOracle runs random 2-3 table unindexed joins over random data
// — INT, FLOAT, STRING and NULL keys mixed in one column, NaNs, duplicates,
// empty tables — with random extra conjuncts, LIMIT/OFFSET and grouping on
// the row engine (the nested-loop oracle) and the default engine, requiring
// byte-identical rows, Stats and exec counters.
func FuzzExecJoinOracle(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		ntables := 2 + rng.Intn(2)
		schema := catalog.NewSchema()
		store := storage.NewStore()
		names := []string{"t0", "t1", "t2"}[:ntables]
		randKey := func() sqltypes.Value {
			switch n := rng.Intn(20); {
			case n < 3:
				return sqltypes.Null
			case n < 10:
				return sqltypes.NewInt(int64(rng.Intn(6)))
			case n < 14:
				return sqltypes.NewFloat(float64(rng.Intn(12)) / 2)
			case n < 18:
				return sqltypes.NewString(fmt.Sprint(rng.Intn(4)))
			case n < 19:
				return sqltypes.NewBool(rng.Intn(2) == 0)
			default:
				if rng.Intn(4) == 0 {
					return sqltypes.NewFloat(math.NaN())
				}
				return sqltypes.NewFloat(math.Copysign(0, -1))
			}
		}
		for _, name := range names {
			def, err := catalog.NewTable(name, []catalog.Column{
				{Name: "id", Type: sqltypes.KindInt}, {Name: "k", Type: sqltypes.KindInt},
				{Name: "j", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindInt},
			}, []string{"id"})
			if err != nil {
				t.Fatal(err)
			}
			if err := schema.AddTable(def); err != nil {
				t.Fatal(err)
			}
			tbl, err := store.CreateTable(def)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := 0, rng.Intn(40); i < n; i++ {
				row := sqltypes.Row{sqltypes.NewInt(int64(i)), randKey(), randKey(), sqltypes.NewInt(int64(rng.Intn(10)))}
				if err := tbl.Insert(row, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		l := joinLayout(schema, names...)

		steps := []Step{scanStep(t, l, 0, pick(rng, "", "", "t0.v < 7", "t0.k IS NOT NULL"))}
		for d := 1; d < ntables; d++ {
			inner := names[d]
			outer := names[rng.Intn(d)]
			conds := []string{fmt.Sprintf("%s.%s = %s.%s", inner, pick(rng, "k", "j"), outer, pick(rng, "k", "j"))}
			if rng.Intn(3) == 0 {
				conds[0] = fmt.Sprintf("%s.%s = %s.%s", outer, pick(rng, "k", "j"), inner, pick(rng, "k", "j"))
			}
			if rng.Intn(3) == 0 {
				conds = append(conds, fmt.Sprintf("%s.j = %s.k", inner, names[rng.Intn(d)]))
			}
			switch rng.Intn(5) {
			case 0:
				conds = append(conds, fmt.Sprintf("%s.v != %d", inner, rng.Intn(10)))
			case 1:
				conds = append(conds, fmt.Sprintf("(%s.v BETWEEN 2 AND 6 OR %s.j IS NULL)", inner, inner))
			case 2:
				conds = append(conds, fmt.Sprintf("%s.v + 1 > %d", inner, rng.Intn(10))) // stays on the nested loop
			}
			steps = append(steps, scanStep(t, l, d, strings.Join(conds, " AND ")))
		}
		p := &Plan{Layout: l, Steps: steps, Limit: -1}
		if rng.Intn(4) == 0 {
			g := qualOff(t, l, names[rng.Intn(ntables)]+".k")
			p.Grouped = true
			p.GroupBy = []CompiledExpr{func(env []sqltypes.Value) (sqltypes.Value, error) { return env[g], nil }}
			p.Aggs = []AggSpec{{Func: AggCount}}
			p.Output = []OutputSpec{ColOutput(g), {Agg: 0}}
		} else {
			var refs []string
			for _, name := range names {
				refs = append(refs, name+".id")
			}
			p.Output = vecOutputs(t, l, refs...)
			if rng.Intn(2) == 0 {
				p.Limit = int64(rng.Intn(20))
				p.Offset = int64(rng.Intn(3))
			}
		}
		runEngines(t, store, p)
	})
}

func pick(rng *rand.Rand, options ...string) string { return options[rng.Intn(len(options))] }
