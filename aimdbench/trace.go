package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// traceDir receives the traced run's span file when it exists.
const traceDir = ".bench_build"

// stmtSpan is the attribution of one replayed statement. Durations are in
// microseconds. RTT and Stmt come from the wire run (the client's round
// trip and the server's own server/stmt span); the rest time the
// benchmark's in-process calls into each layer on a clone in the same
// state.
type stmtSpan struct {
	Round   int     `json:"round"`
	Phase   int     `json:"phase"`
	Seq     uint64  `json:"seq"`
	Write   bool    `json:"write"`
	RTT     float64 `json:"rtt_us"`
	Stmt    float64 `json:"server_stmt_us"`
	Parse   float64 `json:"parse_us"`
	Plan    float64 `json:"plan_us"`
	Run     float64 `json:"run_us"`
	DML     float64 `json:"dml_us"`
	Wire    float64 `json:"wire_us"`
	Bytes   int     `json:"resp_bytes"`
	planned bool
	stats   exec.Stats
}

// cycleSpan times the tuning cycle's public pieces for one round, run in
// server.Tuner's order on the round's window.
type cycleSpan struct {
	Round       int     `json:"round"`
	WindowUS    float64 `json:"window_us"`
	RecommendMS float64 `json:"recommend_ms"`
	GenerateMS  float64 `json:"generate_ms"`
	RankMS      float64 `json:"rank_ms"`
	KnapsackMS  float64 `json:"knapsack_ms"`
	Candidates  int     `json:"candidates"`
	WhatIf      int64   `json:"whatif_calls"`
	Hits        int64   `json:"cache_hits"`
	Misses      int64   `json:"cache_misses"`
	CloneUS     float64 `json:"clone_us"`
	BuildMS     float64 `json:"build_ms"`
	ValidateMS  float64 `json:"validate_ms"`
	Degraded    bool    `json:"degraded"`
	Applied     bool    `json:"applied"`
	ApplyMS     float64 `json:"apply_ms"`
	ObserveUS   float64 `json:"observe_us"`
	Verdict     string  `json:"verdict"`
	Agrees      bool    `json:"agrees_with_server"`
}

// layerSums accumulates the traced run's attribution over rounds.
type layerSums struct {
	stmts       []stmtSpan
	cycles      []cycleSpan
	serverLines []string
}

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// addRound attributes one traced round: it replays the traffic client's
// cold and steady statements in send order on a clone of the fixture
// (tune-phase statements are skipped, so the replayed state is a pure
// function of the seed), runs the cycle's pieces between the two phases, and joins each
// statement with its server/stmt span from the wire run.
func (l *layerSums) addRound(sp *spec, seed int64, fixture *engine.DB, rr *roundResult) error {
	spans := map[string]float64{}
	for _, line := range strings.Split(rr.trace.String(), "\n") {
		if line == "" {
			continue
		}
		l.serverLines = append(l.serverLines, line)
		var s struct {
			Name    string  `json:"name"`
			Dur     float64 `json:"dur_us"`
			Session string  `json:"session"`
			Seq     string  `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return fmt.Errorf("server span line: %v", err)
		}
		if s.Name == "server/stmt" {
			spans[s.Session+"#"+s.Seq] = s.Dur
		}
	}

	db := fixture.Clone(fmt.Sprintf("traced-%d", rr.k))
	defer db.Release()
	reg := obs.NewRegistry()
	db.SetObs(reg)
	ex := exec.New(db.Store)
	var window []server.Record
	cycled := false
	for i := range rr.stmts {
		st := &rr.stmts[i]
		if st.phase == phaseTune {
			continue
		}
		if st.phase == phaseSteady && !cycled {
			c, err := runCycle(db, reg, window, rr)
			if err != nil {
				return err
			}
			l.cycles = append(l.cycles, *c)
			cycled = true
		}
		a, err := attribute(db, ex, st.sql)
		if err != nil {
			return fmt.Errorf("%q: %v", st.sql, err)
		}
		a.Round, a.Phase, a.Seq, a.Write = rr.k, st.phase, st.seq, st.write
		span, ok := spans["traffic#"+strconv.FormatUint(st.seq, 10)]
		if !ok {
			return fmt.Errorf("no server/stmt span for traffic#%d", st.seq)
		}
		a.RTT = float64(st.rtt().Nanoseconds()) / 1e3
		a.Stmt = span
		l.stmts = append(l.stmts, *a)
		if st.phase == phaseCold {
			window = append(window, server.Record{Session: "traffic", Seq: st.seq, SQL: st.sql, Stats: a.stats})
		}
	}
	return nil
}

// attribute executes one statement on db through the layers' public entry
// points, timing each: parse, plan, execute (or the engine's DML path),
// and the wire encoding of the response.
func attribute(db *engine.DB, ex *exec.Executor, sql string) (*stmtSpan, error) {
	a := &stmtSpan{}
	t := time.Now()
	stmt, err := sqlparser.Parse(sql)
	a.Parse = since(t)
	if err != nil {
		return nil, err
	}
	var resp *server.Response
	if sel, ok := stmt.(*sqlparser.Select); ok {
		t = time.Now()
		plan, _, err := db.Optimizer.BuildSelectPlan(sel)
		a.Plan, a.planned = since(t), true
		if err != nil {
			return nil, err
		}
		cols := selectColumns(sel)
		t = time.Now()
		res, err := ex.Run(plan, cols)
		a.Run = since(t)
		if err != nil {
			return nil, err
		}
		a.stats = res.Stats
		resp = &server.Response{Tag: server.TagRows, Columns: res.Columns, Rows: res.Rows}
	} else {
		switch stmt.(type) {
		case *sqlparser.Update, *sqlparser.Delete:
			t = time.Now()
			_, _, err := db.Optimizer.BuildDMLPlan(stmt)
			a.Plan, a.planned = since(t), true
			if err != nil {
				return nil, err
			}
		}
		t = time.Now()
		res, err := db.ExecStmt(stmt)
		a.DML = since(t)
		if err != nil {
			return nil, err
		}
		a.stats = res.Stats
		resp = &server.Response{Tag: server.TagOK, Affected: res.Stats.RowsSent}
	}
	t = time.Now()
	payload := server.EncodeResponse(resp)
	_, err = server.DecodeResponse(payload)
	a.Wire, a.Bytes = since(t), len(payload)
	return a, err
}

// selectColumns names a SELECT's result columns the way the engine does.
func selectColumns(s *sqlparser.Select) []string {
	cols := make([]string, len(s.Exprs))
	for i, se := range s.Exprs {
		switch {
		case se.Alias != "":
			cols[i] = se.Alias
		case se.Star:
			cols[i] = "*"
		default:
			cols[i] = se.Expr.SQL()
		}
	}
	return cols
}

// runCycle runs server.Tuner's cycle pieces on db over the window:
// Recommend, shadow.Validate, Apply, Detector.Observe. It also clones and
// builds the recommended set once more on a throwaway clone, which splits
// the validation time into clone, build and replay.
func runCycle(db *engine.DB, reg *obs.Registry, window []server.Record, rr *roundResult) (*cycleSpan, error) {
	c := &cycleSpan{Round: rr.k}
	t := time.Now()
	mon := workload.NewMonitor()
	for _, rec := range window {
		stmt, err := sqlparser.Parse(rec.SQL)
		if err != nil {
			return nil, err
		}
		if err := mon.RecordStmt(stmt, rec.Stats); err != nil {
			return nil, err
		}
	}
	c.WindowUS = since(t)

	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	adv := core.NewAdvisor(db, cfg)
	t = time.Now()
	rec, err := adv.Recommend(mon)
	c.RecommendMS = since(t) / 1e3
	if err != nil {
		return nil, err
	}
	spans := reg.Snapshot().Spans
	c.GenerateMS = spans["advisor/generate"].Sum * 1e3
	c.RankMS = spans["advisor/rank"].Sum * 1e3
	c.KnapsackMS = spans["advisor/knapsack"].Sum * 1e3
	c.Candidates = rec.CandidateCount
	c.WhatIf = rec.OptimizerCalls
	c.Hits, c.Misses = rec.Cache.Hits, rec.Cache.Misses

	var adopted []string
	if create := rec.Create; len(create) > 0 {
		// Each timed build starts from a collected heap, so one build's
		// garbage does not bill the next.
		runtime.GC()
		t = time.Now()
		split := db.Clone("split")
		c.CloneUS = since(t)
		defs := make([]*catalog.Index, len(create))
		for i, ix := range create {
			def := *ix
			def.Columns = append([]string(nil), ix.Columns...)
			def.Hypothetical = false
			defs[i] = &def
		}
		t = time.Now()
		_, err := split.CreateIndexes(defs)
		c.BuildMS = since(t) / 1e3
		split.Release()
		if err != nil {
			return nil, err
		}

		runtime.GC()
		t = time.Now()
		rep, err := shadow.Validate(db, create, mon, shadow.DefaultGate())
		c.ValidateMS = since(t) / 1e3
		if err != nil {
			return nil, err
		}
		c.Degraded = rep.Degraded
		c.Verdict = fmt.Sprintf("%s[%s]", rep.Verdict(), rep.Code)
		if rep.Accepted {
			runtime.GC()
			t = time.Now()
			_, err := adv.Apply(&core.Recommendation{Create: create})
			c.ApplyMS = since(t) / 1e3
			if err != nil {
				return nil, err
			}
			c.Applied = true
			for _, ix := range create {
				adopted = append(adopted, ix.Key())
			}
		}
	}
	det := regression.NewDetector(0.5)
	t = time.Now()
	det.Observe(db, mon)
	c.ObserveUS = since(t)

	served := make([]string, len(rr.adopted))
	for i, ix := range rr.adopted {
		served[i] = ix.Key()
	}
	sort.Strings(adopted)
	sort.Strings(served)
	c.Agrees = slices.Equal(adopted, served)
	return c, nil
}

// metrics reduces the attribution to the per-layer metrics, plus the
// identity terms: client mean RTT, parse, server stmt, wire, unattributed.
func (l *layerSums) metrics(rrs []*roundResult) (map[string]metric, [5]float64) {
	var n, nPlan, nColdSel, nSteadySel, nSteady, nDML float64
	var rtt, stmt, parse, wire, bytes, gate, plan, coldRun, run, dml float64
	var steadyRead, steadySent, steadyPages, idxWrites, rowsWritten int64
	for _, a := range l.stmts {
		n++
		rtt += a.RTT
		stmt += a.Stmt
		parse += a.Parse
		wire += a.Wire
		bytes += float64(a.Bytes)
		if a.planned {
			nPlan++
			plan += a.Plan
		}
		if a.Write {
			nDML++
			dml += a.DML
			gate += a.Stmt - a.DML
			idxWrites += a.stats.IndexWrites
			rowsWritten += a.stats.RowsWritten
		} else {
			gate += a.Stmt - a.Plan - a.Run
			if a.Phase == phaseCold {
				nColdSel++
				coldRun += a.Run
			} else {
				nSteadySel++
				run += a.Run
				steadyRead += a.stats.RowsRead
				steadySent += a.stats.RowsSent
			}
		}
		if a.Phase == phaseSteady {
			nSteady++
			steadyPages += a.stats.PageReads
		}
	}
	var c cycleSpan
	var applied, degraded float64
	for _, x := range l.cycles {
		c.WindowUS += x.WindowUS
		c.RecommendMS += x.RecommendMS
		c.GenerateMS += x.GenerateMS
		c.RankMS += x.RankMS
		c.KnapsackMS += x.KnapsackMS
		c.Candidates += x.Candidates
		c.WhatIf += x.WhatIf
		c.Hits += x.Hits
		c.Misses += x.Misses
		c.CloneUS += x.CloneUS
		c.BuildMS += x.BuildMS
		c.ValidateMS += x.ValidateMS
		c.ApplyMS += x.ApplyMS
		c.ObserveUS += x.ObserveUS
		if x.Applied {
			applied++
		}
		if x.Degraded {
			degraded++
		}
	}
	rounds := float64(len(l.cycles))
	stmtUS, wireUS, parseUS := stmt/n, wire/n, parse/n
	unattributed := rtt/n - stmtUS - wireUS - parseUS
	m := map[string]metric{
		"server.stmt_us":              {stmtUS, "us"},
		"server.gate_wait_us":         {gate / n, "us"},
		"server.wire_us":              {wireUS, "us"},
		"server.resp_bytes":           {bytes / n, "bytes"},
		"server.unattributed_us":      {unattributed, "us"},
		"sqlparser.parse_us":          {parseUS, "us"},
		"optimizer.plan_us":           {div(plan, nPlan), "us"},
		"optimizer.whatif_calls":      {float64(c.WhatIf) / rounds, "count"},
		"costcache.hit_rate":          {div(float64(c.Hits), float64(c.Hits+c.Misses)), "ratio"},
		"exec.cold_run_us":            {div(coldRun, nColdSel), "us"},
		"exec.run_us":                 {div(run, nSteadySel), "us"},
		"exec.rows_read_per_row":      {div(float64(steadyRead), float64(steadySent)), "ratio"},
		"exec.page_reads_per_stmt":    {div(float64(steadyPages), nSteady), "count"},
		"engine.dml_us":               {div(dml, nDML), "us"},
		"engine.index_writes_per_row": {div(float64(idxWrites), float64(rowsWritten)), "ratio"},
		"workload.window_us":          {c.WindowUS / rounds, "us"},
		"core.recommend_ms":           {c.RecommendMS / rounds, "ms"},
		"core.generate_ms":            {c.GenerateMS / rounds, "ms"},
		"core.rank_ms":                {c.RankMS / rounds, "ms"},
		"core.knapsack_ms":            {c.KnapsackMS / rounds, "ms"},
		"core.candidates":             {float64(c.Candidates) / rounds, "count"},
		"core.apply_ms":               {div(c.ApplyMS, applied), "ms"},
		"storage.clone_us":            {c.CloneUS / rounds, "us"},
		"storage.build_ms":            {c.BuildMS / rounds, "ms"},
		"shadow.validate_ms":          {c.ValidateMS / rounds, "ms"},
		"shadow.replay_ms":            {(c.ValidateMS - c.CloneUS/1e3 - c.BuildMS) / rounds, "ms"},
		"shadow.degraded":             {degraded / rounds, "ratio"},
		"regression.observe_us":       {c.ObserveUS / rounds, "us"},
		"index_mb":                    {meanOf(rrs, func(rr *roundResult) float64 { return rr.indexMB }), "MB"},
	}
	return m, [5]float64{rtt / n, parseUS, stmtUS, wireUS, unattributed}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the traced run's spans — the server's own span lines
// and the benchmark's per-statement and per-cycle attribution — as JSON
// lines, when the build directory exists.
func (l *layerSums) writeTrace(workload string, seed int64) error {
	if _, err := os.Stat(traceDir); err != nil {
		return nil
	}
	f, err := os.Create(filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, line := range l.serverLines {
		w.WriteString(line)
		w.WriteByte('\n')
	}
	enc := json.NewEncoder(w)
	for i := range l.stmts {
		enc.Encode(&l.stmts[i])
	}
	for i := range l.cycles {
		enc.Encode(&l.cycles[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
