package loadgen

import (
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/engine"
	"aim/internal/server"
)

func sampleKV(_, _, _ int, r *rand.Rand) string {
	if r.Intn(3) == 0 {
		return fmt.Sprintf("SELECT id FROM kv WHERE v = %d", r.Intn(300))
	}
	return fmt.Sprintf("SELECT v FROM kv WHERE id = %d", r.Intn(100))
}

// TestStreamIsTheSealedWindowOrder pins the contract the serve suite's
// offline reference rests on: for a concurrent fleet, each round's window
// as the server's collector seals it (Flush, canonical SortWindow order)
// executes exactly Stream(opts)[round], statement for statement, with the
// session labels and trace IDs Label and Trace compute from position.
func TestStreamIsTheSealedWindowOrder(t *testing.T) {
	db := engine.New("loadgen")
	db.MustExec(`CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))`)
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*3))
	}
	db.Analyze()
	opts := Options{Clients: 3, Rounds: 3, PerRound: 7, Seed: 11, Sample: sampleKV, TraceIDs: true}
	srv := server.New(server.Options{DB: db, MaxConns: opts.Clients + 1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck
	opts.Addr = addr

	want := Stream(opts)
	var windows [][]server.Record
	opts.OnRound = func(int) {
		w := srv.Collector().Flush()
		server.SortWindow(w)
		windows = append(windows, w)
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("statement errors: %v", res.Errors)
	}
	if len(windows) != opts.Rounds {
		t.Fatalf("%d windows sealed, want %d", len(windows), opts.Rounds)
	}
	for round, w := range windows {
		if len(w) != len(want[round]) {
			t.Fatalf("round %d: window has %d statements, stream %d", round, len(w), len(want[round]))
		}
		for k, rec := range w {
			c, i := k/opts.PerRound, k%opts.PerRound
			if rec.SQL != want[round][k] {
				t.Fatalf("round %d slot %d: window ran %q, stream says %q", round, k, rec.SQL, want[round][k])
			}
			if rec.Session != Label(c) || rec.Trace != Trace(c, round, i) {
				t.Fatalf("round %d slot %d: session %q trace %q, want %q %q",
					round, k, rec.Session, rec.Trace, Label(c), Trace(c, round, i))
			}
		}
	}
}

// TestStreamDeterministic: the stream is a pure function of the options —
// two calls agree, and growing the run appends rounds without changing the
// earlier ones (generation never depends on anything but position).
func TestStreamDeterministic(t *testing.T) {
	opts := Options{Clients: 4, Rounds: 3, PerRound: 5, Seed: 5, Sample: sampleKV}
	a, b := Stream(opts), Stream(opts)
	opts.Rounds = 5
	longer := Stream(opts)
	for round := range a {
		for k := range a[round] {
			if a[round][k] != b[round][k] || a[round][k] != longer[round][k] {
				t.Fatalf("round %d slot %d: %q / %q / %q", round, k, a[round][k], b[round][k], longer[round][k])
			}
		}
	}
	opts.Seed = 6
	if other := Stream(opts); other[0][0] == a[0][0] && other[0][1] == a[0][1] && other[0][2] == a[0][2] {
		t.Error("a different seed produced the same stream prefix")
	}
}

// TestLabelAndTraceArePositional pins the deterministic IDs: pure functions
// of (client, round, position), zero-padded so label order is client order.
func TestLabelAndTraceArePositional(t *testing.T) {
	if got := Label(3); got != "lg-0003" {
		t.Errorf("Label(3) = %q", got)
	}
	if Label(9) >= Label(10) {
		t.Errorf("label order %q >= %q breaks client order", Label(9), Label(10))
	}
	if got := Trace(12, 4, 7); got != "t-0012-4-7" {
		t.Errorf("Trace(12, 4, 7) = %q", got)
	}
	if Trace(1, 2, 3) == Trace(1, 3, 2) {
		t.Error("Trace collides across positions")
	}
}
