package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestBenchExecReport measures replay throughput of the vectorized batch
// engine against the row engine on the products workload and records the
// results in BENCH_exec.json at the repo root. Wall-clock sensitive, so it
// is env-gated out of plain `go test ./...`; `make benchexec` invokes it.
// RunExecBench cross-checks byte-identical rows and Stats on every replayed
// statement before any timing, so a passing report also certifies parity.
func TestBenchExecReport(t *testing.T) {
	if os.Getenv("AIM_BENCH_EXEC") == "" {
		t.Skip("set AIM_BENCH_EXEC=1 to run (invoked by make benchexec)")
	}
	res, err := RunExecBench(DefaultExecBenchOptions())
	if err != nil {
		t.Fatal(err)
	}

	report := struct {
		Rows       int                       `json:"rows"`
		GoVersion  string                    `json:"go_version"`
		GOMAXPROCS int                       `json:"gomaxprocs"`
		Benchmarks map[string]ExecBenchEntry `json:"benchmarks"`
		Speedup    map[string]float64        `json:"speedup"`
	}{
		Rows:       res.Rows,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]ExecBenchEntry{
			"ReplayRowEngine":     res.RowEngine,
			"ReplayVecEngine":     res.VecEngine,
			"ReplayJoinRowEngine": res.JoinRowEngine,
			"ReplayJoinVecEngine": res.JoinVecEngine,
			"ColdJoinRowEngine":   res.ColdJoinRowEngine,
			"ColdJoinVecEngine":   res.ColdJoinVecEngine,
		},
		Speedup: map[string]float64{
			"replay":           res.Speedup(),
			"join_replay":      res.JoinSpeedup(),
			"cold_join_replay": res.ColdJoinSpeedup(),
		},
	}
	t.Logf("replay speedup: %.2fx over %d statements (%d rows); indexed joins: %.2fx over %d statements; cold JOB joins: %.2fx over %d statements",
		res.Speedup(), res.Statements, res.Rows, res.JoinSpeedup(), res.JoinStatements,
		res.ColdJoinSpeedup(), res.ColdJoinStatements)
	if sp := res.Speedup(); sp < 2 {
		t.Errorf("vectorized replay only %.2fx over the row engine, want >= 2x", sp)
	}
	if sp := res.ColdJoinSpeedup(); sp < 2 {
		t.Errorf("cold JOB join replay only %.2fx over the nested loop, want >= 2x", sp)
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_exec.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote BENCH_exec.json: replay %.2fx, indexed joins %.2fx, cold JOB joins %.2fx\n",
		res.Speedup(), res.JoinSpeedup(), res.ColdJoinSpeedup())
}

// TestExecBenchSmoke runs a miniature configuration on every plain test run:
// it exercises the workload build, the pre-timing engine-parity gate, and
// both measurement paths without wall-clock assertions.
func TestExecBenchSmoke(t *testing.T) {
	res, err := RunExecBench(ExecBenchOptions{Rows: 2_000, Tables: 2, Statements: 8, JoinStatements: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statements != 8 {
		t.Fatalf("replay set has %d statements, want 8", res.Statements)
	}
	if res.VecEngine.NsPerOp <= 0 || res.RowEngine.NsPerOp <= 0 ||
		res.ColdJoinVecEngine.NsPerOp <= 0 || res.ColdJoinRowEngine.NsPerOp <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
	if res.ColdJoinStatements != 48 {
		t.Fatalf("cold JOB deck has %d statements, want 48", res.ColdJoinStatements)
	}
}
