package server

import (
	"fmt"
	"strings"
	"sync"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// Tuner is the continuous-tuning cycle — the one implementation the live
// server, the offline fault and scenario suites (experiments.Loop) and the
// continuous study all run. Each cycle observes one window and keeps the
// paper's safety contract in a fixed order: recommend, filter candidates in
// their revert cooldown, gate every creation through shadow validation or
// change nothing, apply, retire indexes unused for the detector's
// DropAfterUnused windows, observe the window (plus the write-amplification
// guard when the detector's MaintenanceGuard is on), then revert what the
// detector flags. An accepted-but-degraded verdict is the one fatal error —
// it would be an ungated adoption. Every adopt and revert is recorded in the
// tuner's Stability tracker.
//
// Locking: the tuner shares the server's statement gate. Recommending and
// observing hold the read side (stats collection must not race live DML);
// applying and reverting hold the write side; snapshot creation inside
// shadow validation serializes through the engine's clone gate (see
// engine.DB.SetCloneGate), so replays run against frozen snapshots while
// live client traffic proceeds.
type Tuner struct {
	DB  *engine.DB
	Adv *core.Advisor
	// Detector watches the windows after the gate; nil skips the cooldown
	// filter, retirement, observation and revert (a caller that drives its
	// own detector).
	Detector *regression.Detector
	Gate     shadow.Gate
	// Exec is the server's statement gate; nil means the caller already
	// serializes (offline replay).
	Exec *sync.RWMutex
	// OnReport, when set, receives every shadow verdict (telemetry hook).
	OnReport func(*shadow.Report)

	mu sync.Mutex // serializes cycles (background seals vs OpTune)

	Cycles              int
	Adoptions           int
	ApplyFailures       int
	DegradedValidations int
	Reverted            int
	verdicts            []string
	stab                *regression.Stability

	tuneCycles *obs.Counter // server.tune_cycles
}

// Instrument attaches the tuner's counters to r, the Stability tracker's
// regression.stability.* counters included.
func (t *Tuner) Instrument(r *obs.Registry) {
	if r != nil {
		t.tuneCycles = r.Counter("server.tune_cycles")
		t.Stability().SetObs(r)
	}
}

// Stability returns the tracker of every adopt/revert transition the tuner
// made, one window per cycle. It is not safe for concurrent use: read it
// between cycles.
func (t *Tuner) Stability() *regression.Stability {
	if t.stab == nil {
		t.stab = regression.NewStability()
	}
	return t.stab
}

// CycleWindow builds the window's monitor from a sealed (sorted) record
// slice and runs one tuning cycle. Statements are fed to the monitor in the
// canonical window order, so the resulting recommendation is byte-identical
// to an offline replay of the same stream. When the serving database has an
// audit journal attached, the window itself is journaled first (one
// EventWindow record mapping normalized queries to live statement IDs), so
// every decision record of the cycle can be traced back to the statements
// that drove it.
func (t *Tuner) CycleWindow(w []Record) (string, error) {
	mon := workload.NewMonitor()
	queries, err := windowQueries(w, mon)
	if err != nil {
		return "", err
	}
	return t.cycle(mon, queries)
}

// windowQueries maps a sealed window's statements to their normalized
// queries (first-appearance order) with counts and statement IDs, feeding
// each statement to mon as well when mon is non-nil.
func windowQueries(w []Record, mon *workload.Monitor) ([]audit.WindowQuery, error) {
	var queries []audit.WindowQuery
	index := map[string]int{} // normalized query -> queries slot
	for i := range w {
		rec := &w[i]
		// A statement that executed successfully always re-parses; a failure
		// here means the collector was fed garbage.
		stmt, err := sqlparser.Parse(rec.SQL)
		if err != nil {
			return nil, fmt.Errorf("server: window record: %v", err)
		}
		if mon != nil {
			if err := mon.RecordStmt(stmt, rec.Stats); err != nil {
				return nil, fmt.Errorf("server: window record: %v", err)
			}
		}
		norm, _ := sqlparser.Normalize(stmt)
		slot, ok := index[norm]
		if !ok {
			slot = len(queries)
			index[norm] = slot
			queries = append(queries, audit.WindowQuery{Query: norm})
		}
		q := &queries[slot]
		q.Count++
		if len(q.Statements) < audit.MaxWindowStatements {
			id := rec.Trace
			if id == "" {
				id = fmt.Sprintf("%s#%d", rec.Session, rec.Seq)
			}
			q.Statements = append(q.Statements, id)
		}
	}
	return queries, nil
}

// Cycle runs one tuning cycle over an observed window and returns a short
// rendered verdict line. The error path is reserved for invariant
// violations (an ungated adoption); operational failures degrade to "no
// change this cycle".
func (t *Tuner) Cycle(mon *workload.Monitor) (string, error) {
	return t.cycle(mon, nil)
}

// cycle is the locked cycle body. queries, when non-empty, is journaled
// as an EventWindow record before any decision record of this cycle — under
// the cycle lock, so the journal's window → candidate → shadow → adopt
// ordering is deterministic.
func (t *Tuner) cycle(mon *workload.Monitor, queries []audit.WindowQuery) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cycle := t.Cycles
	t.Cycles++
	if t.tuneCycles != nil {
		t.tuneCycles.Inc()
	}
	stab := t.Stability()
	stab.BeginWindow()
	if len(queries) > 0 {
		t.DB.AuditJournal().Append(&audit.Record{
			Event:   audit.EventWindow,
			Cycle:   int64(cycle),
			Queries: queries,
		})
	}

	t.rlock()
	rec, err := t.Adv.Recommend(mon)
	t.runlock()
	if err != nil {
		return "", fmt.Errorf("server: recommend: %v", err)
	}

	// Candidates inside their revert cooldown are not re-proposed this
	// cycle: an index the tuner just reverted must wait the cooldown out, or
	// a borderline workload flips it adopt/revert forever.
	create := rec.Create
	if t.Detector != nil {
		kept := make([]*catalog.Index, 0, len(create))
		for _, ix := range create {
			if t.Detector.InCooldown(ix.Key()) {
				continue
			}
			kept = append(kept, ix)
		}
		create = kept
	}

	verdict := "no_candidates"
	if len(create) > 0 {
		// Validation clones through the engine's clone gate (write-side of
		// the statement gate when serving), then replays on frozen COW
		// snapshots with no server lock held: live traffic continues.
		report, err := shadow.Validate(t.DB, create, mon, t.Gate)
		if err != nil {
			return "", fmt.Errorf("server: validate: %v", err)
		}
		if t.OnReport != nil {
			t.OnReport(report)
		}
		if report.Accepted && report.Degraded {
			return "", fmt.Errorf("server: degraded verdict accepted: %s", report.Reason)
		}
		if report.Degraded {
			t.DegradedValidations++
		}
		verdict = fmt.Sprintf("%s[%s]", report.Verdict(), report.Code)
		if report.Accepted {
			// Only the validated creations are applied; unused indexes leave
			// through the retirement below, so nothing changes the physical
			// design without a gate verdict or a journaled revert reason.
			t.lock()
			_, err := t.Adv.Apply(&core.Recommendation{Create: create})
			t.unlock()
			if err != nil {
				// CreateIndexes rolled the batch back; a later cycle
				// re-validates.
				t.ApplyFailures++
				verdict += " apply_failed"
			} else {
				t.Adoptions++
				keys := indexKeys(create)
				stab.NoteAdopted(keys...)
				verdict += " adopted=" + strings.Join(keys, ",")
			}
		}
	}

	if t.Detector != nil {
		reverted := t.revert(t.Detector.RetireUnused(rec.Drop))
		t.rlock()
		regs := t.Detector.Observe(t.DB, mon)
		if t.Detector.MaintenanceGuard {
			regs = append(regs, t.Detector.ObserveMaintenance(t.DB, mon)...)
		}
		t.runlock()
		reverted = append(reverted, t.revert(regs)...)
		if len(reverted) > 0 {
			verdict += " reverted=" + strings.Join(reverted, ",")
		}
	}

	line := fmt.Sprintf("cycle %d: stmts=%d queries=%d %s", cycle, statementCount(mon), mon.Len(), verdict)
	t.verdicts = append(t.verdicts, line)
	return line, nil
}

// revert drops the regressions' suspects under the write side of the
// statement gate (taken only when there is something to drop), records the
// reverts, and returns the dropped keys.
func (t *Tuner) revert(regs []*regression.Regression) []string {
	if len(regs) == 0 {
		return nil
	}
	t.lock()
	keys := t.Detector.Revert(t.DB, regs)
	t.unlock()
	t.Reverted += len(keys)
	t.stab.NoteReverted(keys...)
	return keys
}

// Verdicts returns the rendered per-cycle verdict lines so far.
func (t *Tuner) Verdicts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.verdicts...)
}

func (t *Tuner) rlock() {
	if t.Exec != nil {
		t.Exec.RLock()
	}
}
func (t *Tuner) runlock() {
	if t.Exec != nil {
		t.Exec.RUnlock()
	}
}
func (t *Tuner) lock() {
	if t.Exec != nil {
		t.Exec.Lock()
	}
}
func (t *Tuner) unlock() {
	if t.Exec != nil {
		t.Exec.Unlock()
	}
}

func statementCount(mon *workload.Monitor) int64 {
	var n int64
	for _, q := range mon.Queries() {
		n += q.Executions
	}
	return n
}

func indexKeys(ixs []*catalog.Index) []string {
	out := make([]string, len(ixs))
	for i, ix := range ixs {
		out[i] = ix.Key()
	}
	return out
}
