package job

import (
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/sqltypes"
	"aim/internal/workload"
)

func TestBuildAndRunAllQueries(t *testing.T) {
	db, err := Build(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if db.Store.Table("cast_info").RowCount() < 500 {
		t.Fatalf("cast_info rows = %d", db.Store.Table("cast_info").RowCount())
	}
	qs := Queries(3)
	if len(qs) != 12 {
		t.Fatalf("queries = %d", len(qs))
	}
	mon := workload.NewMonitor()
	for i, q := range qs {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("JOB q%d: %v\n%s", i+1, err, q)
		}
		mon.Record(q, res.Stats)
	}
	if mon.Len() != 12 {
		t.Fatalf("normalized = %d", mon.Len())
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Build(0.02, 5)
	b, _ := Build(0.02, 5)
	ra, _ := a.Exec("SELECT COUNT(*), SUM(info_val) FROM movie_info")
	rb, _ := b.Exec("SELECT COUNT(*), SUM(info_val) FROM movie_info")
	if ra.Rows[0][1].Float() != rb.Rows[0][1].Float() {
		t.Fatal("not deterministic")
	}
}

// coldDeck is the 48-statement JOB deck (12 templates x 4 parameter seeds)
// run against a database with no secondary index, where every join inner
// without a primary-key probe is a full scan.
func coldDeck() []string {
	var deck []string
	for p := int64(0); p < 4; p++ {
		deck = append(deck, Queries(p)...)
	}
	return deck
}

// renderDeck executes the deck and serializes every statement's rows (hex
// key encoding, so INT 1 and FLOAT 1.0 differ) and full Stats.
func renderDeck(db *engine.DB, deck []string) ([]string, error) {
	out := make([]string, len(deck))
	for i, q := range deck {
		res, err := db.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %v", i, err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(hex.EncodeToString(sqltypes.EncodeKey(nil, row...)))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%+v", res.Stats)
		out[i] = b.String()
	}
	return out, nil
}

// TestColdDeckHashProbeParity runs the cold deck on the nested-loop row
// engine, then serially and from 8 goroutines at once on the default engine
// of the same DB, which shares one Executor. Every run must produce the row
// engine's rows and Stats: hash-probe state belongs to one Run, so
// concurrent statements cannot see each other's tables. Run it under -race.
func TestColdDeckHashProbeParity(t *testing.T) {
	db, err := Build(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	db.SetObs(reg)
	deck := coldDeck()

	db.SetRowOnlyExec(true)
	want, err := renderDeck(db, deck)
	if err != nil {
		t.Fatal(err)
	}
	db.SetRowOnlyExec(false)
	serial, err := renderDeck(db, deck)
	if err != nil {
		t.Fatal(err)
	}
	for i := range deck {
		if serial[i] != want[i] {
			t.Fatalf("statement %d diverges from the nested loop\n%s\n--- row engine ---\n%s\n--- default ---\n%s",
				i, deck[i], want[i], serial[i])
		}
	}
	if reg.Snapshot().Counters["exec.hash_builds"] == 0 {
		t.Fatal("the cold deck built no hash table")
	}

	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different statement so the same plan
			// runs on several goroutines at different moments.
			rot := append(append([]string(nil), deck[w*5:]...), deck[:w*5]...)
			var err error
			if got[w], err = renderDeck(db, rot); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	for w, rendered := range got {
		for j, r := range rendered {
			i := (j + w*5) % len(deck)
			if r != want[i] {
				t.Fatalf("worker %d, statement %d diverges from the serial run\n--- serial ---\n%s\n--- concurrent ---\n%s",
					w, i, want[i], r)
			}
		}
	}
}
