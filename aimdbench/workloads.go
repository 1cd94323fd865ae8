package main

import (
	"fmt"
	"sort"
	"strings"

	"aim/internal/engine"
	"aim/internal/sqltypes"
	"aim/internal/workloads/job"
)

// Statement index spaces within one round. Cold statements take indexes
// [0, cold), steady statements [cold, cold+steady), and the open-ended
// tune-phase stream starts at tuneBase, so a statement's text never depends
// on how many statements a timing-dependent phase happened to send.
const tuneBase = 1 << 24

// sampled reports whether the check replays read idx.
func (s *spec) sampled(idx int) bool { return idx%s.checkEvery == 0 }

// spec is one benchmark workload: a fixture, a statement stream that is a
// pure function of (seed, round, index), and the per-round phase sizes.
type spec struct {
	name string
	// build returns the fixture for a seed plus its table sizes.
	build func(seed int64) (*engine.DB, map[string]int, error)
	// stmt draws statement i of round k.
	stmt func(seed int64, k, i int) string
	// cold and steady are the statement counts of the two fixed phases.
	cold, steady int
	// writes reports whether the mix writes.
	writes bool
	// checkEvery is the read sampling period of the correctness check and
	// of the cpu_ratio replay; every write is replayed.
	checkEvery int
	// roundSeconds is the nominal wall time of one round on a 2-core
	// machine; it turns --seconds into a fixed round count.
	roundSeconds float64
}

var specs = map[string]*spec{
	"events_read":  eventsSpec("events_read", false),
	"events_mixed": eventsSpec("events_mixed", true),
	"job_join":     jobSpec(),
}

// eventsRows sizes the events table of both events workloads.
const eventsRows = 50000

// eventsUsers is the number of distinct user_id values (300 rows each).
const eventsUsers = 166

func eventsSpec(name string, mixed bool) *spec {
	// Reads on events_mixed never get an index and change under writes,
	// so the no-index check cannot memoize them; it samples them sparser.
	// Those full scans take about four times as long as a tuned
	// events_read read, and 600 of them already put its read figures well
	// inside their bounds.
	checkEvery, steady, roundSeconds := 4, 1200, 2.0
	if mixed {
		checkEvery, steady, roundSeconds = 16, 600, 1.5
	}
	s := &spec{
		name:         name,
		cold:         300,
		steady:       steady,
		writes:       mixed,
		checkEvery:   checkEvery,
		roundSeconds: roundSeconds,
		build: func(seed int64) (*engine.DB, map[string]int, error) {
			return eventsFixture(eventsRows, seed)
		},
	}
	// A deck of 8 (events_read) or 80 (events_mixed) statement classes is
	// dealt in seeded shuffles, so every block of statements has the mix
	// exactly; parameters are drawn per statement.
	const (
		kindScore = iota
		day
		user
		update
		insert
	)
	deck := []int{kindScore, kindScore, day, user, user, user, user, user}
	if mixed {
		deck = nil
		for c, n := range map[int]int{kindScore: 14, day: 7, user: 35, update: 16, insert: 8} {
			for j := 0; j < n; j++ {
				deck = append(deck, c)
			}
		}
		sort.Ints(deck)
	}
	s.stmt = func(seed int64, k, i int) string {
		r := newRNG(seed, k, i)
		switch deal(deck, seed, k, i) {
		case kindScore:
			return fmt.Sprintf("SELECT id FROM events WHERE kind = %d AND score > %d", r.intn(8), 900+r.intn(100))
		case day:
			return fmt.Sprintf("SELECT id FROM events WHERE day = %d", r.intn(365))
		case user:
			return fmt.Sprintf("SELECT score FROM events WHERE user_id = %d", r.intn(eventsUsers))
		case update:
			return fmt.Sprintf("UPDATE events SET score = %d WHERE id = %d", r.intn(1000), r.intn(eventsRows))
		default:
			return fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d)",
				eventsRows+i, r.intn(eventsUsers), r.intn(8), r.intn(365), r.intn(1000))
		}
	}
	return s
}

// eventsFixture builds the serve suite's events table, bulk-loaded and
// analyzed.
func eventsFixture(rows int, seed int64) (*engine.DB, map[string]int, error) {
	db := engine.New("events")
	if _, err := db.Exec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, PRIMARY KEY (id))`); err != nil {
		return nil, nil, err
	}
	r := newRNG(seed, -1, 0)
	data := make([]sqltypes.Row, rows)
	for i := range data {
		data[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(r.intn(eventsUsers))), sqltypes.NewInt(int64(r.intn(8))),
			sqltypes.NewInt(int64(r.intn(365))), sqltypes.NewInt(int64(r.intn(1000))),
		}
	}
	if err := db.InsertRows("events", data); err != nil {
		return nil, nil, err
	}
	db.Analyze()
	return db, map[string]int{"events": rows}, nil
}

// jobScale sizes the job_join fixture and jobData seeds its data, for
// every benchmark seed: the costs of the 48 statements depend on the data
// draw, so a per-seed fixture would change the workload's cost mix from
// seed to seed. jobParams is the fixed parameter pool: statements are drawn
// from the 12 templates of job.Queries(s) for s in [0, jobParams). The seed
// deals their order, which decides what overlaps each tuning cycle.
const (
	jobScale  = 0.5
	jobData   = 1
	jobParams = 4
)

func jobSpec() *spec {
	// The deck holds every (template, pool seed) pair once and is dealt in
	// seeded shuffles: each block of 48 statements is the whole population.
	var deck []string
	for p := 0; p < jobParams; p++ {
		for _, q := range job.Queries(int64(p)) {
			deck = append(deck, strings.Join(strings.Fields(q), " "))
		}
	}
	classes := make([]int, len(deck))
	for c := range classes {
		classes[c] = c
	}
	return &spec{
		name:         "job_join",
		cold:         48,
		steady:       480,
		checkEvery:   1,
		roundSeconds: 3.75,
		build: func(int64) (*engine.DB, map[string]int, error) {
			db, err := job.Build(jobScale, jobData)
			if err != nil {
				return nil, nil, err
			}
			sizes := map[string]int{}
			for _, t := range db.Schema.Tables() {
				sizes[t.Name] = db.Store.Table(t.Name).RowCount()
			}
			return db, sizes, nil
		},
		stmt: func(seed int64, k, i int) string {
			return deck[deal(classes, seed, k, i)]
		},
	}
}

// deckBase keys the per-block shuffles apart from the per-statement draws.
const deckBase = 1 << 27

// deal returns the class at position i of round k when the deck is dealt
// in consecutive blocks, each block a fresh seeded shuffle of the deck.
func deal(deck []int, seed int64, k, i int) int {
	n := len(deck)
	perm := append([]int(nil), deck...)
	r := newRNG(seed, k, deckBase+i/n)
	for j := n - 1; j > 0; j-- {
		x := r.intn(j + 1)
		perm[j], perm[x] = perm[x], perm[j]
	}
	return perm[i%n]
}

// rng is a splitmix64 stream: cheap to seed per statement, so every
// statement gets its own generator keyed by (seed, round, index).
type rng struct{ s uint64 }

func newRNG(seed int64, k, i int) *rng {
	r := &rng{s: uint64(seed)}
	r.s = r.next() ^ uint64(int64(k))*0x9e3779b97f4a7c15
	r.s = r.next() ^ uint64(int64(i))*0xbf58476d1ce4e5b9
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
