package main

import (
	"sort"
	"time"
)

// endToEnd computes the end-to-end metrics of a set of rounds. Every
// timing is computed per round and reported as the median over rounds, so
// rounds the machine disturbed do not move it, except tune_stmt_per_s,
// which pools the cycles (statements completed while a cycle was in flight
// ÷ total cycle time). cpu_ratio is the exact ratio over all rounds'
// samples.
func endToEnd(rrs []*roundResult, setupS, cpuTuned, cpuBare float64) map[string]metric {
	perRound := map[string][]float64{}
	for _, rr := range rrs {
		for name, v := range roundFigures(rr) {
			perRound[name] = append(perRound[name], v)
		}
	}
	ratio := 1.0
	if cpuBare > 0 {
		ratio = cpuTuned / cpuBare
	}
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"tune_stmt_per_s": {sum(perRound["tune_done"]) / sum(perRound["tune_s"]), "1/s"},
		"cpu_ratio":       {ratio, "ratio"},
		"heap_mb":         {rrs[0].heapMB, "MB"},
	}
	for name, unit := range map[string]string{
		"cold_read_p50_us": "us", "read_p50_us": "us", "read_p99_us": "us",
		"write_p50_us": "us", "write_p99_us": "us", "stmt_per_s": "1/s",
		"tune_s": "s", "tune_stall_ms": "ms",
	} {
		m[name] = metric{median(perRound[name]), unit}
	}
	return m
}

// roundFigures computes one round's timings: the latency percentiles of
// its cold and steady phases, steady throughput, and the cycle's duration,
// the traffic statements completed while it was in flight, and the longest
// traffic statement whose span overlaps it.
func roundFigures(rr *roundResult) map[string]float64 {
	var cold, reads, writes []float64
	var done int
	var longest time.Duration
	for i := range rr.stmts {
		st := &rr.stmts[i]
		us := float64(st.rtt().Nanoseconds()) / 1e3
		switch {
		case st.phase == phaseCold && !st.write:
			cold = append(cold, us)
		case st.phase == phaseSteady && st.write:
			writes = append(writes, us)
		case st.phase == phaseSteady:
			reads = append(reads, us)
		}
		if st.end.Before(rr.tuneFrom) || st.start.After(rr.tuneTo) {
			continue
		}
		if !st.end.After(rr.tuneTo) {
			done++
		}
		longest = max(longest, st.rtt())
	}
	tune := rr.tuneTo.Sub(rr.tuneFrom).Seconds()
	return map[string]float64{
		"cold_read_p50_us": percentile(cold, 50),
		"read_p50_us":      percentile(reads, 50),
		"read_p99_us":      percentile(reads, 99),
		"write_p50_us":     percentile(writes, 50),
		"write_p99_us":     percentile(writes, 99),
		"stmt_per_s":       float64(len(reads)+len(writes)) / rr.steady.Seconds(),
		"tune_s":           tune,
		"tune_done":        float64(done),
		"tune_stall_ms":    float64(longest.Nanoseconds()) / 1e6,
	}
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func meanOf(rrs []*roundResult, f func(*roundResult) float64) float64 {
	var sum float64
	for _, rr := range rrs {
		sum += f(rr)
	}
	return sum / float64(len(rrs))
}
