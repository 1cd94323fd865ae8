package main

import (
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/server"
	"aim/internal/sqltypes"
	"aim/internal/workloads/job"
)

// Statement i of round k must be a pure function of (workload, seed, k, i):
// drawing it out of order, between other rounds' and seeds' draws, gives
// the same text.
func TestStatementsArePure(t *testing.T) {
	for _, name := range workloadNames() {
		sp := specs[name]
		const n = 200
		fwd := make([]string, n)
		for i := range fwd {
			fwd[i] = sp.stmt(7, 3, i)
		}
		same := 0
		for i := n - 1; i >= 0; i-- {
			other := sp.stmt(8, 3, i)
			sp.stmt(7, 4, i)
			if got := sp.stmt(7, 3, i); got != fwd[i] {
				t.Fatalf("%s: statement %d drawn out of order: %q, want %q", name, i, got, fwd[i])
			}
			if other == fwd[i] {
				same++
			}
		}
		if same == n {
			t.Errorf("%s: seeds 7 and 8 draw the same stream", name)
		}
	}
}

// Every dealt block holds the workload's mix exactly.
func TestBlocksHoldTheMix(t *testing.T) {
	kinds := func(sql string) string {
		switch {
		case strings.HasPrefix(sql, "UPDATE"):
			return "update"
		case strings.HasPrefix(sql, "INSERT"):
			return "insert"
		case strings.Contains(sql, "kind ="):
			return "kind"
		case strings.Contains(sql, "day ="):
			return "day"
		default:
			return "user"
		}
	}
	for _, tc := range []struct {
		name  string
		block int
		want  map[string]int
	}{
		{"events_read", 8, map[string]int{"kind": 2, "day": 1, "user": 5}},
		{"events_mixed", 80, map[string]int{"kind": 14, "day": 7, "user": 35, "update": 16, "insert": 8}},
	} {
		for b := 0; b < 3; b++ {
			got := map[string]int{}
			for i := b * tc.block; i < (b+1)*tc.block; i++ {
				got[kinds(specs[tc.name].stmt(1, 0, i))]++
			}
			for k, n := range tc.want {
				if got[k] != n {
					t.Errorf("%s block %d: %d %s statements, want %d", tc.name, b, got[k], k, n)
				}
			}
		}
	}
	var deck []string
	for p := 0; p < jobParams; p++ {
		for _, q := range job.Queries(int64(p)) {
			deck = append(deck, strings.Join(strings.Fields(q), " "))
		}
	}
	sort.Strings(deck)
	for b := 0; b < 3; b++ {
		var block []string
		for i := b * len(deck); i < (b+1)*len(deck); i++ {
			block = append(block, specs["job_join"].stmt(int64(b), b, i))
		}
		sort.Strings(block)
		if !slices.Equal(block, deck) {
			t.Errorf("job_join block %d is not the 48-statement deck", b)
		}
	}
}

// The exact counts repeat bit for bit across two runs with one seed. The
// runs are shortened (one round, a short steady phase); the counts are
// pure functions of the statements either way.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	exact := []string{
		"optimizer.whatif_calls", "core.candidates", "exec.rows_read_per_row",
		"exec.page_reads_per_stmt", "engine.index_writes_per_row", "index_mb",
	}
	for _, name := range workloadNames() {
		sp := *specs[name]
		sp.steady = sp.steady / 8
		var reps [2]*report
		for r := range reps {
			rep, err := run(&sp, 5, 1, true, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s: correct=%v failed=%d", name, rep.Correct, rep.Failed)
			}
			reps[r] = rep
		}
		a, b := reps[0], reps[1]
		if x, y := a.e2e["cpu_ratio"].Value, b.e2e["cpu_ratio"].Value; x != y {
			t.Errorf("%s: cpu_ratio %v then %v", name, x, y)
		}
		for _, m := range exact {
			if x, y := a.layers[m].Value, b.layers[m].Value; x != y {
				t.Errorf("%s: %s %v then %v", name, m, x, y)
			}
		}
	}
}

// The check of an ORDER BY ... LIMIT read accepts any order of rows that
// tie on the sort key and any choice among the last key's ties, but fails
// rows out of order and a LIMIT that is not the first rows in order.
func TestOrderedLimitCheck(t *testing.T) {
	db := engine.New("order")
	if _, err := db.Exec(`CREATE TABLE t (id INT, k INT, y INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	// y runs 0,0,1,1,...,9,9 over ids 0..19; k=0 on every id.
	var rows []sqltypes.Row
	for id := 0; id < 20; id++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(id)), sqltypes.NewInt(0), sqltypes.NewInt(int64(id / 2))})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	const sql = "SELECT id, y FROM t WHERE k = 0 ORDER BY y LIMIT 5"
	a, err := (&oracle{answers: map[string]*answer{}}).answer(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	result := func(ids ...int) *server.Result {
		r := &server.Result{Columns: []string{"id", "y"}}
		for _, id := range ids {
			r.Rows = append(r.Rows, sqltypes.Row{sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(id / 2))})
		}
		return r
	}
	for _, tc := range []struct {
		ids  []int
		pass bool
	}{
		{[]int{0, 1, 2, 3, 4}, true},
		{[]int{1, 0, 3, 2, 5}, true},  // ties reordered, the other tie of y=2
		{[]int{0, 1, 2, 4, 3}, false}, // out of order
		{[]int{1, 2, 3, 4, 5}, false}, // shifted by one: a y=2 row stands in for a y=0 row
		{[]int{2, 3, 4, 5, 6}, false}, // shifted by two
		{[]int{15, 16, 17, 18, 19}, false},
		{[]int{0, 1, 2, 3}, false},
	} {
		msg := a.check(result(tc.ids...))
		if (msg == "") != tc.pass {
			t.Errorf("rows %v: check %q, want pass=%v", tc.ids, msg, tc.pass)
		}
	}
	if _, err := (&oracle{answers: map[string]*answer{}}).answer(db, "SELECT id FROM t ORDER BY y LIMIT 5"); err == nil {
		t.Error("ORDER BY a column outside the result was accepted unchecked")
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
