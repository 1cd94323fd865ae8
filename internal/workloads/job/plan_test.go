package job

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/sqlparser"
)

// planScale is the size of the database the planning tests and benchmark
// plan against: the aimdbench job_join fixture, so the statistics (and with
// them the plans) are the ones the tuned server sees.
const planScale = 0.5

// tunedDB builds the deck's database and materializes TunedIndexes on it.
func tunedDB(tb testing.TB) *engine.DB {
	tb.Helper()
	db, err := Build(planScale, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateIndexes(TunedIndexes()); err != nil {
		tb.Fatal(err)
	}
	return db
}

// parsedDeck parses the 48 deck statements once, so planning runs measure
// the planner and not the parser.
func parsedDeck(tb testing.TB) []*sqlparser.Select {
	tb.Helper()
	var out []*sqlparser.Select
	for _, q := range coldDeck() {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, stmt.(*sqlparser.Select))
	}
	return out
}

// BenchmarkPlanJOBDeck plans the 48 deck statements (one op = the whole
// deck) with BuildSelectPlan on the tuned database: the planning share of a
// tuned job_join statement, without parsing or execution.
func BenchmarkPlanJOBDeck(b *testing.B) {
	db := tunedDB(b)
	deck := parsedDeck(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sel := range deck {
			if _, _, err := db.Optimizer.BuildSelectPlan(sel); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// allocsPerPlanBefore is what BuildSelectPlan allocated per deck statement
// on the tuned database while the join search still enumerated a table's
// access paths on every DP transition and re-derived its per-table
// invariants (stats, selectivity, index filter, key columns) on each.
const allocsPerPlanBefore = 805

// TestPlanJOBDeckAllocs is the deterministic gate on planning cost: the
// average allocation count of one deck statement's BuildSelectPlan must
// stay at or below 40% of allocsPerPlanBefore.
func TestPlanJOBDeckAllocs(t *testing.T) {
	db := tunedDB(t)
	deck := parsedDeck(t)
	perDeck := testing.AllocsPerRun(5, func() {
		for _, sel := range deck {
			if _, _, err := db.Optimizer.BuildSelectPlan(sel); err != nil {
				t.Fatal(err)
			}
		}
	})
	perPlan := perDeck / float64(len(deck))
	limit := 0.4 * allocsPerPlanBefore
	t.Logf("%.1f allocs per plan (limit %.1f)", perPlan, limit)
	if perPlan > limit {
		t.Fatalf("BuildSelectPlan allocates %.1f times per deck statement, above %.1f (40%% of %d)",
			perPlan, limit, allocsPerPlanBefore)
	}
}

// hexf renders a float bit-exactly.
func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// renderPlanning plans one statement three ways — BuildSelectPlan, a what-if
// estimate through the shared cost cache and one straight on the optimizer —
// and serializes everything the plans decide.
func renderPlanning(db *engine.DB, sel *sqlparser.Select, config []*catalog.Index) (string, error) {
	var b strings.Builder
	plan, desc, err := db.Optimizer.BuildSelectPlan(sel)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "plan %q %q %s %s\n", desc, plan.UsedIndexes, hexf(plan.EstimatedCost), hexf(plan.EstimatedRows))
	cached, err := db.WhatIf.EstimateSelectConfig(sel, config)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "whatif %q %q %s %s\n", cached.Desc, cached.UsedIndexKeys(), hexf(cached.Cost), hexf(cached.Rows))
	direct, err := db.Optimizer.EstimateSelect(sel, config)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "direct %q %q %s %s\n", direct.Desc, direct.UsedIndexKeys(), hexf(direct.Cost), hexf(direct.Rows))
	return b.String(), nil
}

// TestDeckPlanningConcurrent plans the deck serially, then from 8 goroutines
// at once through one shared Optimizer — directly and through db.WhatIf, as
// the advisor's worker pool does. Every concurrent result must equal the
// serial one: planning state lives in one planning call, never on the
// Optimizer. Run it under -race.
func TestDeckPlanningConcurrent(t *testing.T) {
	db := tunedDB(t)
	deck := parsedDeck(t)
	// A hypothetical configuration: the tuned set with every other key
	// reversed, so what-if plans differ from the materialized ones.
	var config []*catalog.Index
	for i, ix := range TunedIndexes() {
		ix.Name = fmt.Sprintf("hypo_%d", i)
		ix.Hypothetical = true
		if i%2 == 1 && len(ix.Columns) > 1 {
			for l, r := 0, len(ix.Columns)-1; l < r; l, r = l+1, r-1 {
				ix.Columns[l], ix.Columns[r] = ix.Columns[r], ix.Columns[l]
			}
		}
		config = append(config, ix)
	}

	want := make([]string, len(deck))
	for i, sel := range deck {
		var err error
		if want[i], err = renderPlanning(db, sel, config); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	// Empty the cost cache so the concurrent what-if calls plan again.
	db.WhatIf.Invalidate()

	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]string, len(deck))
			for j := range deck {
				i := (j + w*5) % len(deck)
				r, err := renderPlanning(db, deck[i], config)
				if err != nil {
					t.Errorf("worker %d, statement %d: %v", w, i, err)
					return
				}
				got[w][i] = r
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			if r != want[i] {
				t.Fatalf("worker %d, statement %d diverges from the serial run\n--- serial ---\n%s--- concurrent ---\n%s",
					w, i, want[i], r)
			}
		}
	}
}
