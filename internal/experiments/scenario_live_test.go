package experiments

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"aim/internal/audit"
	"aim/internal/scenarios"
	"aim/internal/server"
)

// TestServeSuiteScenarioParity runs every adversarial scenario through a
// real server on loopback and holds it to the offline scenario run: one
// traffic client sends each cycle's window over the wire, the scenario's
// side effects run between windows with no traffic in flight, and one
// OpTune closes each cycle. The profile's loop policy reaches the server
// only through Options.Detector, so a match proves aimd runs the scenario
// protections (retirement, the maintenance guard) the offline suite
// certifies. The decision journal (window records aside, which only the
// live path writes) and the rendered result, stability transitions
// included, must be identical, and the live run must satisfy the
// profile's bounds: writetrap must shed the amt index live. Reduced cycles
// in tier-1; full cycles with AIM_SERVE_SUITE=1 (`make servesuite`).
func TestServeSuiteScenarioParity(t *testing.T) {
	full := os.Getenv("AIM_SERVE_SUITE") == "1"
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			p := sc.Profile()
			cycles := p.ReducedCycles
			if full {
				cycles = p.Cycles
			}
			var offJournal strings.Builder
			off, err := RunScenario(sc, ScenarioOptions{Cycles: cycles, Seed: 1, Audit: audit.New(&offJournal)})
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := scenarios.ByName(sc.Name())
			live, liveJournal := runScenarioLive(t, fresh, cycles)

			if got, want := live.Render(), off.Render(); got != want {
				t.Errorf("live result diverges from the offline run:\nlive:\n%s\noffline:\n%s", got, want)
			}
			offRecs := decisionJournal(t, offJournal.String())
			liveRecs := decisionJournal(t, liveJournal)
			if len(liveRecs) != len(offRecs) {
				t.Fatalf("live journal has %d decision records, offline %d", len(liveRecs), len(offRecs))
			}
			for i := range offRecs {
				if liveRecs[i] != offRecs[i] {
					t.Fatalf("journal record %d diverges:\nlive:    %s\noffline: %s", i, liveRecs[i], offRecs[i])
				}
			}
			for _, v := range live.Violations(p) {
				t.Errorf("live stability bound violated: %s", v)
			}
		})
	}
}

// runScenarioLive drives one scenario through server.New with the
// profile's detector and returns the result read off the server's tuner
// plus the raw decision journal.
func runScenarioLive(t *testing.T, sc scenarios.Scenario, cycles int) (*ScenarioResult, string) {
	t.Helper()
	p := sc.Profile()
	r := rand.New(rand.NewSource(1))
	db, err := sc.Setup(r)
	if err != nil {
		t.Fatal(err)
	}
	var jb strings.Builder
	jrn := audit.New(&jb)
	db.SetAudit(jrn)
	cfg := scenarioAdvisorCfg(0)
	srv := server.New(server.Options{DB: db, AdvisorCfg: &cfg, Detector: scenarioDetector(p)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck
	c, err := server.Dial(addr, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("scenario"); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < cycles; cycle++ {
		if err := sc.Advance(srv.DB(), cycle, r); err != nil {
			t.Fatalf("advance cycle %d: %v", cycle, err)
		}
		for i := 0; i < p.WindowStatements; i++ {
			// A statement the engine rejects is answered with a typed error
			// and not observed, as the offline loop skips it; anything else
			// is a broken session.
			if _, err := c.Query(sc.Statement(cycle, r)); err != nil && !strings.Contains(err.Error(), "remote error") {
				t.Fatalf("cycle %d statement %d: %v", cycle, i, err)
			}
		}
		if _, err := c.Tune(); err != nil {
			t.Fatalf("tune cycle %d: %v", cycle, err)
		}
		if err := checkLoopInvariants(db); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	return scenarioResult(sc, cycles, srv.Tuner()), jb.String()
}

// decisionJournal normalizes a journal (ts_us and span_id zeroed) and drops
// its window records; seq is zeroed too, since window records take seq
// numbers on the live path only. Record order still carries the sequence.
func decisionJournal(t *testing.T, journal string) []string {
	t.Helper()
	recs, err := audit.ReadRecords(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	kept := recs[:0]
	for _, r := range recs {
		if r.Event != audit.EventWindow {
			r.Seq = 0
			kept = append(kept, r)
		}
	}
	out, err := normalizeJournal(kept)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
