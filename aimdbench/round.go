package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/server"
)

// Phases of a round.
const (
	phaseCold = iota
	phaseTune
	phaseSteady
)

// sentStmt is one statement as the benchmark sent it and as the client saw
// it come back.
type sentStmt struct {
	phase int
	idx   int // statement index within the round (see tuneBase)
	seq   uint64
	sql   string
	write bool
	// start and end bound the client-side round trip.
	start, end time.Time
	res        *server.Result // kept only for statements the check replays
	err        error
}

func (s *sentStmt) rtt() time.Duration { return s.end.Sub(s.start) }

// roundResult is the outcome of one round over the wire.
type roundResult struct {
	k        int
	stmts    []sentStmt
	verdict  string
	tuneErr  error
	tuneFrom time.Time
	tuneTo   time.Time
	steady   time.Duration
	// adopted are the secondary indexes the server holds after the cycle.
	adopted  []*catalog.Index
	indexMB  float64
	drainErr error
	fatal    []string
	// model is a clone of the server database taken right after the
	// verdict: the state the steady phase starts from.
	model *engine.DB
	// trace holds the server's span lines when the round ran traced.
	trace *obs.TraceBuffer
	// heapMB is the live heap after GC at the end of the steady phase of
	// round 0 (0 in later rounds).
	heapMB float64
}

// runRound drives round k against a fresh server on a COW clone of the
// fixture: cold phase, one tuning cycle with traffic alongside, steady
// phase, then a clean drain.
func runRound(sp *spec, seed int64, k int, fixture *engine.DB, traced bool) (*roundResult, error) {
	db := fixture.Clone(fmt.Sprintf("round-%d", k))
	defer db.Release()
	opts := server.Options{DB: db}
	rr := &roundResult{k: k}
	if traced {
		reg := obs.NewRegistry()
		rr.trace = obs.NewTraceBuffer(0)
		reg.SetTraceWriter(rr.trace)
		db.SetObs(reg)
		opts.Obs = reg
	}
	srv := server.New(opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	traffic, control, err := connect(addr)
	if err != nil {
		srv.Shutdown()
		return nil, err
	}

	var seq uint64
	send := func(st sentStmt) sentStmt {
		seq++
		st.seq = seq
		st.write = !strings.HasPrefix(st.sql, "SELECT")
		st.start = time.Now()
		res, err := traffic.Query(st.sql)
		st.end = time.Now()
		st.err = err
		if st.write || sp.sampled(st.idx) {
			st.res = res
		}
		return st
	}

	// Each phase starts from a collected heap, so garbage left by set-up or
	// by the previous phase does not bill the next one.
	runtime.GC()
	for i := 0; i < sp.cold; i++ {
		rr.stmts = append(rr.stmts, send(sentStmt{phase: phaseCold, idx: i, sql: sp.stmt(seed, k, i)}))
	}

	// Tune phase: the control client seals the window with OpTune; traffic
	// resumes only once the collector has been flushed, so the window is
	// exactly the cold phase.
	type verdict struct {
		line string
		err  error
		at   time.Time
	}
	done := make(chan verdict, 1)
	runtime.GC()
	rr.tuneFrom = time.Now()
	go func() {
		line, err := control.Tune()
		done <- verdict{line, err, time.Now()}
	}()
	var v *verdict
	poll := func() {
		if v == nil {
			select {
			case got := <-done:
				v = &got
			default:
			}
		}
	}
	for poll(); v == nil && srv.Collector().Buffered() != 0; poll() {
		runtime.Gosched()
	}
	for j := 0; v == nil; j++ {
		rr.stmts = append(rr.stmts, send(sentStmt{phase: phaseTune, idx: tuneBase + j, sql: sp.stmt(seed, k, tuneBase+j)}))
		poll()
	}
	rr.tuneTo = v.at
	rr.verdict, rr.tuneErr = v.line, v.err

	// The cycle has ended and no statement is in flight: the catalog and
	// the data are quiescent until the steady phase starts.
	for _, ix := range db.Schema.Indexes() {
		if !ix.Hypothetical {
			rr.adopted = append(rr.adopted, ix)
		}
	}
	rr.indexMB = float64(db.TotalIndexBytes()) / (1 << 20)
	rr.model = db.Clone(fmt.Sprintf("model-%d", k))

	runtime.GC()
	steadyFrom := time.Now()
	for i := sp.cold; i < sp.cold+sp.steady; i++ {
		rr.stmts = append(rr.stmts, send(sentStmt{phase: phaseSteady, idx: i, sql: sp.stmt(seed, k, i)}))
	}
	rr.steady = time.Since(steadyFrom)
	if k == 0 {
		// Measured in the first round, before the check's memo exists, so
		// the figure is the server's state plus one round of samples.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rr.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	}

	traffic.Close()
	control.Close()
	rr.drainErr = srv.Shutdown()
	for _, line := range srv.Tuner().Verdicts() {
		if strings.HasPrefix(line, "FATAL") {
			rr.fatal = append(rr.fatal, line)
		}
	}
	return rr, nil
}

// connect dials the traffic and control clients and names their sessions.
func connect(addr string) (traffic, control *server.Client, err error) {
	for _, c := range []struct {
		cl    **server.Client
		label string
	}{{&traffic, "traffic"}, {&control, "control"}} {
		cl, err := server.Dial(addr, time.Minute)
		if err == nil {
			err = cl.Hello(c.label)
		}
		if err != nil {
			if traffic != nil {
				traffic.Close()
			}
			if cl != nil {
				cl.Close()
			}
			return nil, nil, fmt.Errorf("connect %s: %v", c.label, err)
		}
		*c.cl = cl
	}
	return traffic, control, nil
}
