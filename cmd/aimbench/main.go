// Command aimbench regenerates the paper's tables and figures on the
// embedded engine and prints their rows/series.
//
// Usage:
//
//	aimbench -exp table2              # Table II (DBA vs AIM per product)
//	aimbench -exp fig3  -product C    # CPU%/throughput convergence series
//	aimbench -exp fig4  -bench tpch   # cost & runtime vs budget sweep
//	aimbench -exp fig4  -bench job
//	aimbench -exp fig5                # per-query TPC-H costs at fixed budget
//	aimbench -exp fig6                # join-parameter study vs greedy
//	aimbench -exp continuous          # workload-shift continuous tuning
//	aimbench -exp exec                # row vs vectorized executor replay bench
//	aimbench -exp scenario -scenario drift   # one adversarial scenario
//	aimbench -exp scenario -scenario all     # the whole adversarial suite
//	aimbench -exp serve               # live aimd fleet vs offline replay
//	aimbench -exp all                 # everything (slow)
//
// -fast shrinks datasets for quick smoke runs. -metrics dumps the
// observability registry (counters, gauges, what-if latency percentiles,
// per-phase span timings) after each experiment; -trace-out writes every
// span as a JSON line for offline flame-graph analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"aim/internal/audit"
	"aim/internal/experiments"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/scenarios"
	"aim/internal/storage"
	"aim/internal/workloads/products"
)

// obsReg is non-nil when -metrics or -trace-out is set; the run helpers
// thread it into every experiment's options.
var obsReg *obs.Registry

// contAuditOut/contTelemetryAddr carry -audit-out and -telemetry-addr into
// the continuous experiment (the only one with a decision loop to observe).
var contAuditOut, contTelemetryAddr string

func main() {
	exp := flag.String("exp", "all", "experiment: table2|fig3|fig4|fig5|fig6|continuous|exec|scenario|serve|all")
	bench := flag.String("bench", "tpch", "benchmark for fig4: tpch|job")
	scenario := flag.String("scenario", "all", "adversarial scenario for -exp scenario: "+strings.Join(scenarios.Names(), "|")+"|all")
	product := flag.String("product", "C", "product for fig3: A..G")
	fast := flag.Bool("fast", false, "reduced dataset sizes")
	workers := flag.Int("workers", 0, "cap what-if costing parallelism (0 = all cores)")
	metrics := flag.Bool("metrics", false, "print the metrics registry after each experiment")
	traceOut := flag.String("trace-out", "", "write advisor spans as JSON lines to this file")
	failpoints := flag.String("failpoints", "", `fault spec, e.g. "shadow.clone=err(0.05)" (or env `+failpoint.EnvVar+")")
	fpSeed := flag.Int64("failpoint-seed", 1, "seed for failpoint firing schedules")
	auditOut := flag.String("audit-out", "", "write the continuous experiment's decision journal (JSON lines) to this file")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metricsz /statusz /healthz /debug/pprof on this address during the continuous experiment")
	flag.Parse()
	contAuditOut, contTelemetryAddr = *auditOut, *telemetryAddr

	if _, err := failpoint.Setup(*failpoints, *fpSeed); err != nil {
		fmt.Fprintf(os.Stderr, "aimbench: %v\n", err)
		os.Exit(1)
	}

	// The experiments construct their advisor configs internally with the
	// default Parallelism (0 = GOMAXPROCS), so bounding GOMAXPROCS bounds
	// every worker pool in the run.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	// -telemetry-addr implies a registry: an attached scraper expects
	// /metricsz to carry the run's counters, not an empty exposition.
	if *metrics || *traceOut != "" || *telemetryAddr != "" {
		obsReg = obs.NewRegistry()
		pool.Instrument(obsReg)
		storage.Instrument(obsReg)
		failpoint.Instrument(obsReg)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aimbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			obsReg.SetTraceWriter(f)
		}
	}

	run := func(name string, f func() error) {
		fmt.Printf("\n=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "aimbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *metrics {
			fmt.Printf("\n--- metrics (%s) ---\n", name)
			obsReg.WriteTo(os.Stdout)
		}
	}

	switch *exp {
	case "table2":
		run("Table II", func() error { return runTable2(*fast) })
	case "fig3":
		run("Figure 3", func() error { return runFig3(*product, *fast) })
	case "fig4":
		run("Figure 4 ("+*bench+")", func() error { return runFig4(*bench, *fast) })
	case "fig5":
		run("Figure 5", func() error { return runFig5(*fast) })
	case "fig6":
		run("Figure 6", func() error { return runFig6(*fast) })
	case "continuous":
		run("Continuous tuning (§VI-D)", func() error { return runContinuous(*fast) })
	case "exec":
		run("Executor replay bench", func() error { return runExecBench(*fast) })
	case "scenario":
		run("Adversarial scenarios", func() error { return runScenarios(*scenario, *fast) })
	case "serve":
		run("Live serving (aimd fleet)", func() error { return runServe(*fast, *workers) })
	case "all":
		run("Table II", func() error { return runTable2(*fast) })
		run("Figure 3", func() error { return runFig3(*product, *fast) })
		run("Figure 4 (tpch)", func() error { return runFig4("tpch", *fast) })
		run("Figure 4 (job)", func() error { return runFig4("job", *fast) })
		run("Figure 5", func() error { return runFig5(*fast) })
		run("Figure 6", func() error { return runFig6(*fast) })
		run("Continuous tuning (§VI-D)", func() error { return runContinuous(*fast) })
	default:
		fmt.Fprintf(os.Stderr, "aimbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func runTable2(fast bool) error {
	opts := experiments.DefaultTable2Options()
	opts.Obs = obsReg
	specs := products.Catalog
	if fast {
		opts.WorkloadStatements = 300
		scaled := make([]products.Spec, len(specs))
		for i, s := range specs {
			s.Tables = min(s.Tables, 20)
			s.JoinQueries = min(s.JoinQueries, 30)
			s.TargetDBA = min(s.TargetDBA, 40)
			s.RowsPerTable = 150
			scaled[i] = s
		}
		specs = scaled
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Product\tTables\tJoinQ\tType\tDBA#\tAIM#\tDBA size\tAIM size\tJaccard")
	for _, spec := range specs {
		row, err := experiments.RunTable2Product(spec, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%s\t%s\t%.2f\n",
			row.Product, row.Tables, row.JoinQueries, row.WorkloadType,
			row.DBAIndexCount, row.AIMIndexCount,
			sizeStr(row.DBABytes), sizeStr(row.AIMBytes), row.Jaccard)
	}
	return w.Flush()
}

func runFig3(product string, fast bool) error {
	spec, ok := products.SpecByName(product)
	if !ok {
		return fmt.Errorf("unknown product %q", product)
	}
	opts := experiments.DefaultFig3Options()
	opts.Obs = obsReg
	if fast {
		spec.Tables = min(spec.Tables, 15)
		spec.JoinQueries = min(spec.JoinQueries, 20)
		spec.TargetDBA = min(spec.TargetDBA, 30)
		spec.RowsPerTable = 150
		opts.WarmTicks, opts.ObserveTicks, opts.RecoverTicks = 4, 6, 10
	}
	res, err := experiments.RunFig3(spec, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s — drop@t%d, AIM@t%d, builds@%v\n", res.Product, res.DropTick, res.AIMStartTick, res.IndexTicks)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tick\tcontrol CPU%\ttest CPU%\tcontrol tput\ttest tput\tevent")
	for i := range res.Test.Ticks {
		event := ""
		if i == res.DropTick {
			event = "<- secondary indexes dropped"
		}
		if i == res.AIMStartTick {
			event = "<- AIM begins"
		}
		for _, bt := range res.IndexTicks {
			if bt == i {
				event = "<- index built"
			}
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.0f\t%.0f\t%s\n",
			i, res.Control.Ticks[i].CPUPercent, res.Test.Ticks[i].CPUPercent,
			res.Control.Ticks[i].Throughput, res.Test.Ticks[i].Throughput, event)
	}
	return w.Flush()
}

func runFig4(bench string, fast bool) error {
	opts := experiments.DefaultFig4Options(bench)
	opts.Obs = obsReg
	if fast {
		opts.Scale = 0.05
		opts.BudgetFractions = []float64{0.25, 0.5, 1.0}
	}
	res, err := experiments.RunFig4(opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "budget\talgorithm\trel. cost\truntime\topt calls\tindexes")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%s\t%d\t%d\n",
			sizeStr(p.BudgetBytes), p.Algorithm, p.RelativeCost, p.Runtime.Round(1000000), p.OptimizerCalls, p.IndexCount)
	}
	return w.Flush()
}

func runFig5(fast bool) error {
	opts := experiments.DefaultFig5Options()
	opts.Obs = obsReg
	if fast {
		opts.Scale = 0.05
	}
	rows, err := experiments.RunFig5(opts)
	if err != nil {
		return err
	}
	var algos []string
	for a := range rows[0].Costs {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "query\tunindexed")
	for _, a := range algos {
		fmt.Fprintf(w, "\t%s", a)
	}
	fmt.Fprintln(w, "\taffected")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4f", r.Query, r.Unindexed)
		for _, a := range algos {
			fmt.Fprintf(w, "\t%.4f", r.Costs[a])
		}
		fmt.Fprintf(w, "\t%v\n", r.Affected)
	}
	return w.Flush()
}

func runFig6(fast bool) error {
	opts := experiments.DefaultFig6Options()
	opts.Obs = obsReg
	if fast {
		opts.Rows = 1500
		opts.PhaseTicks = 4
		opts.QueriesPerTick = 15
		opts.Capacity = 0.5
	}
	res, err := experiments.RunFig6(opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tick\tAIM CPU%\tGIA CPU%\tAIM tput\tGIA tput\tphase")
	for i := range res.AIM.Ticks {
		phase := ""
		for j, start := range res.JStartTicks {
			if start == i {
				phase = fmt.Sprintf("<- AIM j=%d indexes", j)
			}
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.0f\t%.0f\t%s\n",
			i, res.AIM.Ticks[i].CPUPercent, res.GIA.Ticks[i].CPUPercent,
			res.AIM.Ticks[i].Throughput, res.GIA.Ticks[i].Throughput, phase)
	}
	w.Flush()
	fmt.Printf("\nAIM vs GIA: throughput %+.1f%%, CPU %+.1f%% (paper: +27%%, -4.8%%)\n",
		res.ThroughputGainOverGIA()*100, -res.CPUReductionOverGIA()*100)
	fmt.Printf("j=1→2 throughput gain: %+.1f%% (paper: +16%%); j=2→3: %+.1f%% (paper: insignificant)\n",
		res.J2GainOverJ1()*100, res.J3GainOverJ2()*100)
	return nil
}

func runContinuous(fast bool) error {
	opts := experiments.DefaultContinuousOptions()
	opts.Obs = obsReg
	if fast {
		opts.Rows = 2000
		opts.WindowStatements = 150
	}
	if contAuditOut != "" {
		jrn, err := audit.Create(contAuditOut)
		if err != nil {
			return err
		}
		defer func() {
			if err := jrn.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aimbench: audit journal: %v\n", err)
			}
		}()
		opts.Audit = jrn
	}
	if contTelemetryAddr != "" {
		opts.TelemetryAddr = contTelemetryAddr
		opts.OnTelemetryStart = func(addr string) {
			fmt.Printf("telemetry on http://%s (/metricsz /statusz /healthz /debug/pprof)\n", addr)
		}
	}
	res, err := experiments.RunContinuous(opts)
	if err != nil {
		return err
	}
	fmt.Printf("window CPU: steady %.3fs -> shifted %.3fs -> re-tuned %.3fs\n",
		res.Phase1CPU, res.Phase2CPU, res.Phase3CPU)
	fmt.Printf("new indexes: %d (shadow gate accepted: %v)\n", res.NewIndexes, res.ShadowAccepted)
	fmt.Printf("improved queries: %d (≥10x: %d); CPU saving: %.1f%%\n",
		res.ImprovedQueries, res.OrderOfMagnitude, res.CPUSavingFraction*100)
	fmt.Printf("data surge: %d regressions flagged, %d automation indexes reverted\n",
		res.Phase4Regressions, res.RevertedIndexes)
	return nil
}

// runExecBench compares tuple-at-a-time and vectorized execution on the
// replay/serving hot path. Parity is enforced on every sampled statement
// before any timing runs, so a reported speedup is always a speedup on
// byte-identical results.
func runExecBench(fast bool) error {
	opts := experiments.DefaultExecBenchOptions()
	if fast {
		opts.Rows = 4000
		opts.Statements = 16
		opts.JoinStatements = 4
	}
	res, err := experiments.RunExecBench(opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "replay set\tengine\tns/op\titerations")
	fmt.Fprintf(w, "single-table (%d stmts)\trow\t%d\t%d\n", res.Statements, res.RowEngine.NsPerOp, res.RowEngine.Iterations)
	fmt.Fprintf(w, "single-table (%d stmts)\tvectorized\t%d\t%d\n", res.Statements, res.VecEngine.NsPerOp, res.VecEngine.Iterations)
	fmt.Fprintf(w, "indexed joins (%d stmts)\trow\t%d\t%d\n", res.JoinStatements, res.JoinRowEngine.NsPerOp, res.JoinRowEngine.Iterations)
	fmt.Fprintf(w, "indexed joins (%d stmts)\tvectorized\t%d\t%d\n", res.JoinStatements, res.JoinVecEngine.NsPerOp, res.JoinVecEngine.Iterations)
	fmt.Fprintf(w, "cold JOB joins (%d stmts)\trow\t%d\t%d\n", res.ColdJoinStatements, res.ColdJoinRowEngine.NsPerOp, res.ColdJoinRowEngine.Iterations)
	fmt.Fprintf(w, "cold JOB joins (%d stmts)\tvectorized\t%d\t%d\n", res.ColdJoinStatements, res.ColdJoinVecEngine.NsPerOp, res.ColdJoinVecEngine.Iterations)
	w.Flush()
	fmt.Printf("\nreplay speedup: %.2fx (%d rows); indexed joins: %.2fx; cold JOB joins: %.2fx\n",
		res.Speedup(), res.Rows, res.JoinSpeedup(), res.ColdJoinSpeedup())
	return nil
}

// runScenarios drives the adversarial scenario suite outside the test
// harness: each scenario runs its full profile (reduced with -fast), prints
// the stability summary, and fails if any profile bound is violated.
func runScenarios(name string, fast bool) error {
	var list []scenarios.Scenario
	if name == "all" {
		list = scenarios.All()
	} else {
		sc, ok := scenarios.ByName(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(scenarios.Names(), ", "))
		}
		list = []scenarios.Scenario{sc}
	}
	var jrn *audit.Journal
	if contAuditOut != "" {
		j, err := audit.Create(contAuditOut)
		if err != nil {
			return err
		}
		jrn = j
		defer func() {
			if err := jrn.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aimbench: audit journal: %v\n", err)
			}
		}()
	}
	violated := 0
	for _, sc := range list {
		p := sc.Profile()
		cycles := p.Cycles
		if fast {
			cycles = p.ReducedCycles
		}
		res, err := experiments.RunScenario(sc, experiments.ScenarioOptions{
			Cycles: cycles, Seed: 1, Obs: obsReg, Audit: jrn,
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n%s — %s\n%s", sc.Name(), sc.Description(), res.Render())
		for _, v := range res.Violations(p) {
			violated++
			fmt.Printf("VIOLATION: %s\n", v)
		}
	}
	if violated > 0 {
		return fmt.Errorf("%d stability bound(s) violated", violated)
	}
	return nil
}

func sizeStr(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
