package regression

import (
	"strings"
	"testing"

	"aim/internal/audit"
	"aim/internal/catalog"
)

// retireKeys returns the keys of due retirements, each of which must be an
// "unused_index" regression naming exactly one index.
func retireKeys(t *testing.T, regs []*Regression) []string {
	t.Helper()
	var out []string
	for _, r := range regs {
		if r.ReasonCode != "unused_index" || len(r.SuspectIndexes) != 1 {
			t.Fatalf("retirement %+v is not one unused_index suspect", r)
		}
		out = append(out, r.SuspectIndexes[0].Key())
	}
	return out
}

// TestRetireUnusedStreak: an index is retired only after DropAfterUnused
// consecutive unused windows, and one busy window in between resets its
// streak.
func TestRetireUnusedStreak(t *testing.T) {
	ix := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}
	d := NewDetector(0.5)
	d.DropAfterUnused = 3
	unused := []*catalog.Index{ix}
	for w := 1; w <= 2; w++ {
		if due := d.RetireUnused(unused); len(due) != 0 {
			t.Fatalf("window %d: retired %v before the streak completed", w, retireKeys(t, due))
		}
	}
	// Busy window: the advisor no longer proposes the drop.
	if due := d.RetireUnused(nil); len(due) != 0 {
		t.Fatalf("busy window retired %v", retireKeys(t, due))
	}
	for w := 1; w <= 2; w++ {
		if due := d.RetireUnused(unused); len(due) != 0 {
			t.Fatalf("window %d after reset: retired %v, streak was not reset", w, retireKeys(t, due))
		}
	}
	due := d.RetireUnused(unused)
	if got := retireKeys(t, due); len(got) != 1 || got[0] != "t(a)" {
		t.Fatalf("third consecutive unused window retired %v, want [t(a)]", got)
	}
	// Retirement restarts the count: the same index is not retired again on
	// the very next window.
	if due := d.RetireUnused(unused); len(due) != 0 {
		t.Fatalf("retired %v again right after retirement", retireKeys(t, due))
	}
}

// TestRetireUnusedSparesForeignIndexes: DBA, unowned and hypothetical
// indexes are never retired, however long they sit unused; retirements
// come out in key order.
func TestRetireUnusedSparesForeignIndexes(t *testing.T) {
	drop := []*catalog.Index{
		{Name: "dba_t_b", Table: "t", Columns: []string{"b"}, CreatedBy: "dba"},
		{Name: "t_c", Table: "t", Columns: []string{"c"}},
		{Name: "hyp_t_d", Table: "t", Columns: []string{"d"}, CreatedBy: "aim", Hypothetical: true},
		{Name: "aim_t_b_a", Table: "t", Columns: []string{"b", "a"}, CreatedBy: "aim"},
		{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"},
	}
	d := NewDetector(0.5)
	d.DropAfterUnused = 1
	for w := 0; w < 4; w++ {
		got := retireKeys(t, d.RetireUnused(drop))
		if len(got) != 2 || got[0] != "t(a)" || got[1] != "t(b,a)" {
			t.Fatalf("window %d retired %v, want [t(a) t(b,a)]", w, got)
		}
	}
}

// TestRetireUnusedDisabled: DropAfterUnused == 0 never retires and keeps no
// streak state.
func TestRetireUnusedDisabled(t *testing.T) {
	ix := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}
	d := NewDetector(0.5)
	for w := 0; w < 10; w++ {
		if due := d.RetireUnused([]*catalog.Index{ix}); len(due) != 0 {
			t.Fatalf("window %d retired %v with retirement disabled", w, retireKeys(t, due))
		}
	}
	if d.unusedStreak != nil {
		t.Fatalf("disabled retirement kept streak state %v", d.unusedStreak)
	}
}

// TestRetireUnusedRevert: a due retirement reverted through the detector
// drops the index, journals an "unused_index" revert record and starts the
// revert cooldown, so the tuning cycle will not re-adopt it straight away.
func TestRetireUnusedRevert(t *testing.T) {
	db := maintenanceFixture(t)
	var jb strings.Builder
	db.SetAudit(audit.New(&jb))
	d := NewDetector(0.5)
	d.DropAfterUnused = 1
	d.RevertCooldown = 2
	keys := d.Revert(db, d.RetireUnused([]*catalog.Index{db.Schema.Index("aim_t_a")}))
	if len(keys) != 1 || keys[0] != "t(a)" {
		t.Fatalf("reverted %v, want [t(a)]", keys)
	}
	if db.Schema.Index("aim_t_a") != nil {
		t.Fatal("retired index still in the catalog")
	}
	if !d.InCooldown("t(a)") {
		t.Error("retired index is not in its revert cooldown")
	}
	recs, err := audit.ReadRecords(strings.NewReader(jb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var reverts []*audit.Record
	for _, r := range recs {
		if r.Event == audit.EventRevert {
			reverts = append(reverts, r)
		}
	}
	if len(reverts) != 1 || reverts[0].ReasonCode != "unused_index" || reverts[0].IndexKey != "t(a)" {
		t.Fatalf("revert records = %+v, want one unused_index record for t(a)", reverts)
	}
}
