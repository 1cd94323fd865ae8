// Command aimdbench is the repository's end-to-end benchmark. It drives
// one workload against a real aimd server core (internal/server) over
// loopback TCP in rounds — cold traffic, one tuning cycle with traffic
// alongside, tuned traffic — checks every write and a sample of reads
// against a no-index replay, and prints the end-to-end metrics as the last
// line of standard output. With --trace 1 it instead attributes time and
// work to the program's layers by timing its own calls into their public
// entry points, and prints the per-layer metrics.
//
//	go run . --workload events_read --seed 1 --seconds 30 --trace 0
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"aim/internal/engine"
	"aim/internal/server"
)

// setupRepeats is how many times a run measures set-up; setup_s is the
// median. The first set-up builds the fixture the rounds use; the others
// are spread between the rounds, so setup_s samples the same stretch of
// machine time as the round figures rather than the run's first second.
const setupRepeats = 16

// ungated are end-to-end figures every run prints on its "also:" line but
// leaves out of the result's metrics. Tails, maxima and the cycle's
// figures: on a shared 2-core VM, load from other tenants moves them by
// more than the largest bound a metric may have (0.25 of its median) from
// one run to the next, so they cannot gate a change. The cycle runs two
// busy goroutines (the tuner and the traffic) where every other phase runs
// one, so it loses most when the host takes capacity away. Write
// latencies: only events_mixed writes, and a gated metric must have a
// value on every workload.
var ungated = []string{"read_p99_us", "write_p50_us", "write_p99_us", "tune_s", "tune_stmt_per_s", "tune_stall_ms"}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "events_read", "workload: events_read, events_mixed or job_join")
	seed := flag.Int64("seed", 1, "seed of the fixture and the statement stream")
	seconds := flag.Float64("seconds", 30, "nominal measured time; fixes the round count")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	sp := specs[*workload]
	if sp == nil {
		fmt.Fprintf(os.Stderr, "aimdbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	n := rounds(sp, *seconds)
	if *trace == 1 {
		// Each traced round is replayed once more in-process; half the
		// rounds keep the traced run near twice the untraced one.
		n = max(2, n/2)
	}
	rep, err := run(sp, *seed, n, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimdbench: %v\n", err)
		os.Exit(1)
	}
	res := rep.result
	res.Metrics = rep.e2e
	if *trace == 1 {
		res.Metrics = rep.layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// rounds turns the requested measuring time into a fixed round count, so
// every count the benchmark reports is a pure function of its arguments.
func rounds(sp *spec, seconds float64) int {
	return max(2, int(math.Round(seconds/sp.roundSeconds)))
}

// report is the outcome of one run: the result line's counts plus both
// metric sets (layers only on a traced run).
type report struct {
	result
	e2e, layers map[string]metric
}

// run executes the benchmark. Human-readable context (environment stamp,
// verdicts, secondary figures) goes to out.
func run(sp *spec, seed int64, nRounds int, traced bool, out io.Writer) (*report, error) {
	fixture, sizes, setup, err := setUp(sp, seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}
	setupsPerRound := (setupRepeats - 1 + nRounds - 1) / nRounds
	fmt.Fprintf(out, "env: workload=%s seed=%d rounds=%d traced=%v GOMAXPROCS=%d nproc=%d go=%s fixture=%s\n",
		sp.name, seed, nRounds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), formatSizes(sizes))

	var rrs []*roundResult
	var layers *layerSums
	if traced {
		layers = &layerSums{}
	}
	problems := []string{}
	var cpuTuned, cpuBare float64
	adoptedAny := false
	o := newOracle(sp)
	for k := 0; k < nRounds; k++ {
		rr, err := runRound(sp, seed, k, fixture, traced)
		if err != nil {
			return nil, fmt.Errorf("round %d: %v", k, err)
		}
		keys := make([]string, len(rr.adopted))
		for i, ix := range rr.adopted {
			keys[i] = ix.Key()
		}
		adoptedAny = adoptedAny || len(keys) > 0
		fmt.Fprintf(out, "round %d: verdict %q adopted=[%s] tune=%.3fs\n", k, rr.verdict, strings.Join(keys, " "), rr.tuneTo.Sub(rr.tuneFrom).Seconds())
		if rr.tuneErr != nil {
			problems = append(problems, fmt.Sprintf("round %d: tune: %v", k, rr.tuneErr))
		}
		if rr.drainErr != nil {
			problems = append(problems, fmt.Sprintf("round %d: unclean drain: %v", k, rr.drainErr))
		}
		problems = append(problems, rr.fatal...)
		if len(rr.adopted) > 0 && !strings.Contains(rr.verdict, " accepted[") {
			problems = append(problems, fmt.Sprintf("round %d: indexes adopted without an accepting verdict: %q", k, rr.verdict))
		}
		chk := checkRound(sp, o, fixture, rr)
		problems = append(problems, chk.problems...)
		cpuTuned += chk.cpuTuned
		cpuBare += chk.cpuBare
		if traced {
			if err := layers.addRound(sp, seed, fixture, rr); err != nil {
				return nil, fmt.Errorf("round %d: traced replay: %v", k, err)
			}
		}
		// Results were only kept for the check; drop them before the next
		// round so the live heap measures the server, not the samples.
		for i := range rr.stmts {
			rr.stmts[i].res = nil
		}
		rr.trace = nil
		rrs = append(rrs, rr)
		for j := 0; j < setupsPerRound && len(setups) < setupRepeats; j++ {
			_, _, took, err := setUp(sp, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, took)
		}
	}
	fmt.Fprintf(out, "adopted: %s %v\n", sp.name, adoptedAny)

	e2e := endToEnd(rrs, median(setups), cpuTuned, cpuBare)
	reported := map[string]metric{}
	for _, name := range ungated {
		if sp.writes || !strings.HasPrefix(name, "write_") {
			reported[name] = e2e[name]
		}
		delete(e2e, name)
	}
	rep := &report{result: result{Correct: len(problems) == 0}, e2e: e2e}
	res := &rep.result
	for _, rr := range rrs {
		res.Attempted += int64(len(rr.stmts)) + 1
		for _, st := range rr.stmts {
			if st.err != nil {
				res.Failed++
			}
		}
		if rr.tuneErr != nil {
			res.Failed++
		}
	}
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "check: %s\n", p)
	}
	fmt.Fprintf(out, "also: failed_frac=%.6f ratio index_mb=%.4f MB %s\n",
		float64(res.Failed)/float64(res.Attempted), meanOf(rrs, func(rr *roundResult) float64 { return rr.indexMB }), formatMetrics(reported))
	if traced {
		fmt.Fprintf(out, "traced end-to-end (tracing on, for overhead): %s\n", formatMetrics(e2e))
		per, identity := layers.metrics(rrs)
		rep.layers = per
		agree := 0
		for _, c := range layers.cycles {
			if c.Agrees {
				agree++
			}
		}
		fmt.Fprintf(out, "in-process cycles adopting what the server adopted: %d of %d\n", agree, len(layers.cycles))
		fmt.Fprintf(out, "identity: client mean RTT %.2fus = parse %.2f + stmt %.2f + wire %.2f + unattributed %.2f\n",
			identity[0], identity[1], identity[2], identity[3], identity[4])
		if err := layers.writeTrace(sp.name, seed); err != nil {
			fmt.Fprintf(os.Stderr, "aimdbench: trace file: %v\n", err)
		}
	}
	return rep, nil
}

// setUp builds the fixture, starts a server on a clone of it and connects
// both clients, and returns the fixture and the time taken in seconds. The
// collector is held off for the timed span and run after it. Left to the
// pacer, a mark of the whole heap (the rounds' samples too, between
// rounds) lands at a different point of each set-up and moves its time by
// up to half; the set-up's own work, allocation included, is what stays.
func setUp(sp *spec, seed int64) (*engine.DB, map[string]int, float64, error) {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	start := time.Now()
	db, sizes, err := sp.build(seed)
	if err == nil {
		err = startAndConnect(db)
	}
	took := time.Since(start).Seconds()
	runtime.GC()
	debug.SetGCPercent(gc)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %v", err)
	}
	return db, sizes, took, nil
}

// startAndConnect starts a server on a clone of db, connects both
// clients, and shuts it all down again: the part of set-up that follows
// the fixture build.
func startAndConnect(db *engine.DB) error {
	clone := db.Clone("setup")
	defer clone.Release()
	srv := server.New(server.Options{DB: clone})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	traffic, control, err := connect(addr)
	if err == nil {
		traffic.Close()
		control.Close()
	}
	if derr := srv.Shutdown(); err == nil && derr != nil {
		err = fmt.Errorf("setup drain: %v", derr)
	}
	return err
}

// formatSizes renders the fixture's table sizes in name order.
func formatSizes(sizes map[string]int) string {
	parts := make([]string, 0, len(sizes))
	for _, n := range sortedKeys(sizes) {
		parts = append(parts, fmt.Sprintf("%s:%d", n, sizes[n]))
	}
	return strings.Join(parts, ",")
}

func formatMetrics(m map[string]metric) string {
	parts := make([]string, 0, len(m))
	for _, n := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%.4g %s", n, m[n].Value, m[n].Unit))
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
