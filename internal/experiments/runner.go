package experiments

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/server"
	"aim/internal/workload"
)

// Loop drives server.Tuner offline for the fault and scenario suites: each
// cycle runs the scenario's side effects, executes a sampled workload
// window, and hands the window to the tuner's cycle — the same cycle the
// live server runs, so both suites certify aimd's own code. The retirement
// and maintenance-guard policies come with the tuner's Detector.
type Loop struct {
	*server.Tuner
	// Sample draws the next workload statement for the given cycle.
	Sample func(cycle int, r *rand.Rand) string
	// Advance, when set, runs scenario-side effects (schema migrations, load
	// surges) at the start of each cycle, before the window executes.
	Advance func(db *engine.DB, cycle int, r *rand.Rand) error
	R       *rand.Rand
}

// RunCycle executes one window of windowStatements sampled statements
// (failed statements are not observed) and runs one tuning cycle over it,
// returning the cycle's verdict line. The error path is the tuner's:
// an invariant violation such as an ungated adoption.
func (l *Loop) RunCycle(windowStatements int) (string, error) {
	cycle := l.Cycles
	if l.Advance != nil {
		if err := l.Advance(l.DB, cycle, l.R); err != nil {
			return "", fmt.Errorf("advance cycle %d: %v", cycle, err)
		}
	}
	mon := workload.NewMonitor()
	for i := 0; i < windowStatements; i++ {
		sql := l.Sample(cycle, l.R)
		res, err := l.DB.Exec(sql)
		if err != nil {
			continue
		}
		mon.Record(sql, res.Stats)
	}
	return l.Cycle(mon)
}
