package scenarios

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/sqltypes"
)

// Flash-crowd phase boundaries (cycles).
const (
	crowdStart = 24
	crowdEnd   = 60 // the trap: the crowd evaporates here
	hotTopic   = 7
)

// FlashCrowd models a viral hot-key burst: a steady per-author read workload
// is swamped, between crowdStart and crowdEnd, by reads hammering one topic.
// The loop rightly adopts a topic index for the burst — the trap is the
// aftermath. When the crowd evaporates at crowdEnd the index is dead weight
// that no per-query regression will ever flag (nothing got slower); only the
// unused-index retirement path can shed it, and it must do so within the
// configured streak without also shedding the still-hot author index.
type FlashCrowd struct {
	nextID int64
}

// NewFlashCrowd returns a fresh generator.
func NewFlashCrowd() *FlashCrowd { return &FlashCrowd{} }

// Name implements Scenario.
func (f *FlashCrowd) Name() string { return "flashcrowd" }

// Description implements Scenario.
func (f *FlashCrowd) Description() string {
	return "hot-topic read burst at cycles 24-60; its index must be adopted, then retired after the crowd leaves"
}

// Profile implements Scenario.
func (f *FlashCrowd) Profile() Profile {
	return Profile{
		Cycles:           200,
		ReducedCycles:    80,
		WindowStatements: 40,
		TrapCycle:        crowdEnd,
		RevertCooldown:   8,
		DropAfterUnused:  5,
		MaxFlipsPerKey:   1,
		RequireAdoption:  true,
		RequireRevert:    true,
		RevertWithin:     10,
		FinalContains:    []string{"posts(author)"},
	}
}

// Setup implements Scenario: one posts table, 1400 rows.
func (f *FlashCrowd) Setup(r *rand.Rand) (*engine.DB, error) {
	db := engine.New("flashcrowd")
	db.MustExec(`CREATE TABLE posts (id INT, author INT, topic INT, day INT, score INT, PRIMARY KEY (id))`)
	const rows = 1400
	var batch []sqltypes.Row
	for i := 0; i < rows; i++ {
		batch = append(batch, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(r.Intn(120))),
			sqltypes.NewInt(int64(r.Intn(40))),
			sqltypes.NewInt(int64(r.Intn(365))),
			sqltypes.NewInt(int64(r.Intn(1000))),
		})
	}
	if err := db.InsertRows("posts", batch); err != nil {
		return nil, fmt.Errorf("flashcrowd: %v", err)
	}
	db.Analyze()
	f.nextID = rows
	return db, nil
}

// Advance implements Scenario (the crowd lives in the statement mix).
func (f *FlashCrowd) Advance(*engine.DB, int, *rand.Rand) error { return nil }

// Statement implements Scenario.
func (f *FlashCrowd) Statement(cycle int, r *rand.Rand) string {
	crowd := cycle >= crowdStart && cycle < crowdEnd
	roll := r.Intn(10)
	switch {
	case roll == 0: // steady trickle of new posts
		id := f.nextID
		f.nextID++
		return fmt.Sprintf("INSERT INTO posts VALUES (%d, %d, %d, %d, %d)",
			id, r.Intn(120), r.Intn(40), r.Intn(365), r.Intn(1000))
	case crowd && roll >= 2: // 8/10 statements hit the hot topic
		return fmt.Sprintf("SELECT id, score FROM posts WHERE topic = %d AND day = %d",
			hotTopic, 280+r.Intn(40))
	default: // the baseline per-author feed
		return fmt.Sprintf("SELECT id, day FROM posts WHERE author = %d", r.Intn(120))
	}
}
