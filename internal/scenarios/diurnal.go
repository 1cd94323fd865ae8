package scenarios

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/workloads/products"
)

// diurnalPeriod is the scenario's day length in cycles; the first half is
// daytime (read-heavy), the second nighttime (write-heavy batch load).
const diurnalPeriod = 24

// Diurnal models the classic day/night mix shift: an OLTP product that is
// read-heavy during the day (8% writes) and flips to a write-heavy batch
// profile at night (85% writes), every 24 cycles. The trap: indexes adopted
// on daytime evidence look useless — or actively expensive — every night. A
// naive loop retires them at dusk and re-adopts them at dawn, forever; the
// guarded loop (confirmation hysteresis, revert cooldown, a retirement
// streak longer than one night) must keep the design stable across periods.
type Diurnal struct {
	p *products.Product
}

// NewDiurnal returns a fresh generator.
func NewDiurnal() *Diurnal { return &Diurnal{} }

// Name implements Scenario.
func (d *Diurnal) Name() string { return "diurnal" }

// Description implements Scenario.
func (d *Diurnal) Description() string {
	return "day/night read-write mix shift every 24 cycles; design must not flap between phases"
}

// Profile implements Scenario.
func (d *Diurnal) Profile() Profile {
	return Profile{
		Cycles:           240,
		ReducedCycles:    48,
		WindowStatements: 40,
		TrapCycle:        diurnalPeriod / 2, // first nightfall
		ConfirmWindows:   2,
		RevertCooldown:   6,
		// Longer than one night: an index must sit unused through dusk AND
		// the following day before retirement, so the nightly lull alone
		// never sheds it.
		DropAfterUnused: diurnalPeriod + 2,
		MaxFlipsPerKey:  2,
		RequireAdoption: true,
	}
}

// Setup implements Scenario: a small synthetic product (six tables, mixed
// single-table and join templates) built from the run PRNG.
func (d *Diurnal) Setup(r *rand.Rand) (*engine.DB, error) {
	spec := products.Spec{
		Name:         "diurnal",
		Tables:       6,
		JoinQueries:  6,
		Type:         products.Balanced,
		TargetDBA:    12,
		RowsPerTable: 500,
		Seed:         r.Int63(),
	}
	p, err := products.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("diurnal: %v", err)
	}
	d.p = p
	return p.DB, nil
}

// Advance implements Scenario (no side effects; the shift is in the mix).
func (d *Diurnal) Advance(*engine.DB, int, *rand.Rand) error { return nil }

// Statement implements Scenario.
func (d *Diurnal) Statement(cycle int, r *rand.Rand) string {
	writeFraction := 0.08 // daytime: read-heavy
	if cycle%diurnalPeriod >= diurnalPeriod/2 {
		writeFraction = 0.85 // nighttime: batch writes
	}
	return d.p.SampleMixed(r, writeFraction)
}
