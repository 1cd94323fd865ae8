package scenarios

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/sqltypes"
)

// Migration phase boundaries (cycles).
const (
	migrationCycle = 30 // accounts_v2 is created and backfilled here
	migrationRamp  = 12 // cycles over which traffic shifts v1 -> v2
	migrationRows  = 1500
)

// Migration models a shadow-table schema migration mid-stream (the engine
// has no ALTER TABLE, which is exactly how large shops migrate anyway): at
// migrationCycle a v2 table is created and backfilled, then traffic ramps
// from the v1 per-owner lookups to v2 plan/signup-window scans over
// migrationRamp cycles. Two traps hide here. The loop must adopt an index
// for the brand-new v2 query shape while the window still mixes both tables;
// and once v1 goes cold it stops appearing in any observation window, so a
// careless retirement policy — or one keyed on "absent from the window" —
// would never see it again or, worse, drop its index while stragglers still
// depend on it. The unused-index path only reasons about tables the window
// actually touched, and the scenario pins the v1 index's survival.
type Migration struct{}

// NewMigration returns a fresh generator.
func NewMigration() *Migration { return &Migration{} }

// Name implements Scenario.
func (m *Migration) Name() string { return "migration" }

// Description implements Scenario.
func (m *Migration) Description() string {
	return "shadow-table migration at cycle 30 with a 12-cycle traffic ramp; v2 index adopted, cold v1 index untouched"
}

// Profile implements Scenario.
func (m *Migration) Profile() Profile {
	return Profile{
		Cycles:           120,
		ReducedCycles:    60,
		WindowStatements: 40,
		TrapCycle:        migrationCycle,
		ConfirmWindows:   2,
		RevertCooldown:   6,
		DropAfterUnused:  5,
		MaxFlipsPerKey:   1,
		RequireAdoption:  true,
		// Cold-table safety: the v1 owner index must survive the cutover,
		// and the v2 shape must have been indexed.
		FinalContains: []string{"accounts(owner)", "accounts_v2(plan,signup_day)"},
	}
}

// Setup implements Scenario: the v1 accounts table only; v2 arrives via
// Advance at migrationCycle.
func (m *Migration) Setup(r *rand.Rand) (*engine.DB, error) {
	db := engine.New("migration")
	db.MustExec(`CREATE TABLE accounts (id INT, owner INT, region INT, plan INT, signup_day INT, balance INT, PRIMARY KEY (id))`)
	if err := db.InsertRows("accounts", accountRows(r)); err != nil {
		return nil, fmt.Errorf("migration: %v", err)
	}
	db.Analyze()
	return db, nil
}

func accountRows(r *rand.Rand) []sqltypes.Row {
	var batch []sqltypes.Row
	for i := 0; i < migrationRows; i++ {
		batch = append(batch, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(r.Intn(200))),
			sqltypes.NewInt(int64(r.Intn(12))),
			sqltypes.NewInt(int64(r.Intn(6))),
			sqltypes.NewInt(int64(r.Intn(730))),
			sqltypes.NewInt(int64(r.Intn(100000))),
		})
	}
	return batch
}

// Advance implements Scenario: the migration itself.
func (m *Migration) Advance(db *engine.DB, cycle int, r *rand.Rand) error {
	if cycle != migrationCycle {
		return nil
	}
	if _, err := db.Exec(`CREATE TABLE accounts_v2 (id INT, owner INT, region INT, plan INT, signup_day INT, balance INT, PRIMARY KEY (id))`); err != nil {
		return fmt.Errorf("migration: create v2: %v", err)
	}
	if err := db.InsertRows("accounts_v2", accountRows(r)); err != nil {
		return fmt.Errorf("migration: backfill v2: %v", err)
	}
	db.Analyze()
	return nil
}

// v2Fraction is the share of traffic on accounts_v2 at the given cycle.
func v2Fraction(cycle int) float64 {
	switch {
	case cycle < migrationCycle:
		return 0
	case cycle >= migrationCycle+migrationRamp:
		return 1
	default:
		return float64(cycle-migrationCycle+1) / float64(migrationRamp+1)
	}
}

// Statement implements Scenario.
func (m *Migration) Statement(cycle int, r *rand.Rand) string {
	v2 := r.Float64() < v2Fraction(cycle)
	table := "accounts"
	if v2 {
		table = "accounts_v2"
	}
	if r.Intn(12) == 0 { // a trickle of balance updates by primary key
		return fmt.Sprintf("UPDATE %s SET balance = %d WHERE id = %d",
			table, r.Intn(100000), r.Intn(migrationRows))
	}
	if v2 {
		lo := r.Intn(600)
		return fmt.Sprintf("SELECT id, balance FROM accounts_v2 WHERE plan = %d AND signup_day BETWEEN %d AND %d",
			r.Intn(6), lo, lo+30)
	}
	return fmt.Sprintf("SELECT id, balance FROM accounts WHERE owner = %d", r.Intn(200))
}
