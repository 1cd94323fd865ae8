package optimizer_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/sqlparser"
	"aim/internal/workload"
	"aim/internal/workloads/job"
	"aim/internal/workloads/tpch"
)

// planGolden is the recorded planner output for the JOB and TPC-H decks.
// The planner's search may be restructured for speed, but its output —
// access paths, join order, index choice and every estimated float, to the
// bit — must stay exactly this.
const planGolden = "testdata/plans.golden"

// TestPlanGolden replans both decks and compares with planGolden.
func TestPlanGolden(t *testing.T) {
	got := renderPlanGolden(t)
	want, err := os.ReadFile(planGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s:%d differs\n got: %s\nwant: %s", planGolden, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", planGolden, len(g), len(w))
}

// goldenDeck is one workload of the golden: its database, its statements
// and how to tune the database for the "tuned" section.
type goldenDeck struct {
	name  string
	build func() (*engine.DB, error)
	deck  func(seed int64) []string
	tune  func(db *engine.DB, mon *workload.Monitor) error
}

// renderPlanGolden plans every statement of each deck (parameter seeds 0-3)
// under four index configurations, in this order:
//
//   - none: BuildSelectPlan with no secondary index;
//   - whatif-replace: EstimateSelectConfig over exactly the advisor's
//     linearized candidates (hypothetical);
//   - tuned: BuildSelectPlan after tuning (JOB: job.TunedIndexes, the set
//     the advisor adopts for the deck; TPC-H: the advisor's recommendation,
//     applied);
//   - tuned+whatif: EstimateSelect with the candidates on top of the tuned
//     indexes.
func renderPlanGolden(t *testing.T) string {
	t.Helper()
	decks := []goldenDeck{
		{
			name:  "job",
			build: func() (*engine.DB, error) { return job.Build(0.5, 1) },
			deck:  job.Queries,
			tune: func(db *engine.DB, _ *workload.Monitor) error {
				_, err := db.CreateIndexes(job.TunedIndexes())
				return err
			},
		},
		{
			name:  "tpch",
			build: func() (*engine.DB, error) { return tpch.Build(0.05, 11) },
			deck:  tpch.Queries,
			tune: func(db *engine.DB, mon *workload.Monitor) error {
				adv := core.NewAdvisor(db, core.DefaultConfig())
				rec, err := adv.Recommend(mon)
				if err != nil {
					return err
				}
				_, err = adv.Apply(rec)
				return err
			},
		},
	}
	var b strings.Builder
	for _, d := range decks {
		db, err := d.build()
		if err != nil {
			t.Fatal(err)
		}
		type stmt struct {
			label string
			sel   *sqlparser.Select
		}
		var stmts []stmt
		mon := workload.NewMonitor()
		for seed := int64(0); seed < 4; seed++ {
			for i, q := range d.deck(seed) {
				parsed, err := sqlparser.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.Exec(q)
				if err != nil {
					t.Fatalf("%s p%d q%d: %v", d.name, seed, i+1, err)
				}
				mon.Record(q, res.Stats)
				stmts = append(stmts, stmt{fmt.Sprintf("%s p%d q%02d", d.name, seed, i+1), parsed.(*sqlparser.Select)})
			}
		}
		cands := goldenCandidates(db, mon)
		fmt.Fprintf(&b, "# %s: %d statements, %d candidates\n", d.name, len(stmts), len(cands))

		for _, s := range stmts {
			writePlan(t, &b, db, s.label+" none", s.sel)
		}
		for _, s := range stmts {
			est, err := db.Optimizer.EstimateSelectConfig(s.sel, cands)
			if err != nil {
				t.Fatal(err)
			}
			writeEstimate(&b, s.label+" whatif-replace", est.Desc, est.UsedIndexKeys(), est.Cost, est.Rows)
		}
		if err := d.tune(db, mon); err != nil {
			t.Fatal(err)
		}
		var tuned []string
		for _, ix := range db.Schema.Indexes() {
			tuned = append(tuned, ix.Key())
		}
		fmt.Fprintf(&b, "# %s tuned: %s\n", d.name, strings.Join(tuned, " "))
		for _, s := range stmts {
			writePlan(t, &b, db, s.label+" tuned", s.sel)
		}
		for _, s := range stmts {
			est, err := db.Optimizer.EstimateSelect(s.sel, cands)
			if err != nil {
				t.Fatal(err)
			}
			writeEstimate(&b, s.label+" tuned+whatif", est.Desc, est.UsedIndexKeys(), est.Cost, est.Rows)
		}
	}
	return b.String()
}

// goldenCandidates linearizes the advisor's candidate partial orders for
// the monitored workload into hypothetical indexes, deduplicated by key.
func goldenCandidates(db *engine.DB, mon *workload.Monitor) []*catalog.Index {
	cfg := core.DefaultConfig()
	gen := &core.Generator{
		DB:             db,
		J:              cfg.J,
		EnableCovering: cfg.EnableCovering,
		SeekThreshold:  cfg.SeekThreshold,
		Parallelism:    1,
	}
	seen := map[string]bool{}
	var out []*catalog.Index
	for _, po := range gen.GenerateCandidates(mon.Queries()) {
		ix := gen.Linearize(po, cfg.MaxWidth)
		if ix == nil || seen[ix.Key()] {
			continue
		}
		seen[ix.Key()] = true
		out = append(out, ix)
	}
	return out
}

func writePlan(t *testing.T, b *strings.Builder, db *engine.DB, label string, sel *sqlparser.Select) {
	t.Helper()
	plan, desc, err := db.Optimizer.BuildSelectPlan(sel)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	writeEstimate(b, label, desc, plan.UsedIndexes, plan.EstimatedCost, plan.EstimatedRows)
}

// writeEstimate renders one planning result; floats are hex so a single
// ULP of drift shows.
func writeEstimate(b *strings.Builder, label string, desc, used []string, cost, rows float64) {
	fmt.Fprintf(b, "%s\n  explain: %s\n  used: [%s]\n  cost=%s rows=%s\n",
		label, strings.Join(desc, " | "), strings.Join(used, " "),
		strconv.FormatFloat(cost, 'x', -1, 64), strconv.FormatFloat(rows, 'x', -1, 64))
}
