// Package job builds a Join-Order-Benchmark-like workload: an IMDb-style
// schema (titles, names, companies, keywords and their many-to-many link
// tables) with join-heavy analytical query templates of 3-6 way joins.
// The paper uses JOB for Figure 4c/4d because its snowflake joins stress
// join-order-sensitive index selection.
package job

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/sqltypes"
)

// Base row counts at scale 1.0 (IMDb proportions, heavily reduced).
const (
	titleScale     = 8000
	nameScale      = 6000
	companyScale   = 600
	keywordScale   = 1500
	castScale      = 24000
	movieCompScale = 10000
	movieKwScale   = 16000
	infoScale      = 12000
)

var kinds = []string{"movie", "tv series", "video", "short"}
var roles = []string{"actor", "actress", "director", "producer", "writer"}
var countries = []string{"us", "uk", "de", "fr", "jp", "in", "it"}
var infoTypes = []string{"budget", "rating", "genres", "runtime", "votes"}

// Build creates and loads the JOB-like database.
func Build(scale float64, seed int64) (*engine.DB, error) {
	db := engine.New("job")
	ddl := []string{
		`CREATE TABLE title (id INT, kind VARCHAR(12), production_year INT, episode_nr INT, PRIMARY KEY (id))`,
		`CREATE TABLE name (id INT, gender VARCHAR(2), name_pcode INT, PRIMARY KEY (id))`,
		`CREATE TABLE company_name (id INT, country_code VARCHAR(4), name_pcode INT, PRIMARY KEY (id))`,
		`CREATE TABLE keyword (id INT, phonetic INT, PRIMARY KEY (id))`,
		`CREATE TABLE cast_info (id INT, person_id INT, movie_id INT, role VARCHAR(12), nr_order INT, PRIMARY KEY (id))`,
		`CREATE TABLE movie_companies (id INT, movie_id INT, company_id INT, company_type INT, PRIMARY KEY (id))`,
		`CREATE TABLE movie_keyword (id INT, movie_id INT, keyword_id INT, PRIMARY KEY (id))`,
		`CREATE TABLE movie_info (id INT, movie_id INT, info_type INT, info_val INT, PRIMARY KEY (id))`,
	}
	for _, d := range ddl {
		if _, err := db.Exec(d); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	iv := sqltypes.NewInt
	sv := sqltypes.NewString

	nTitle := n(titleScale)
	var rows []sqltypes.Row
	for i := 0; i < nTitle; i++ {
		rows = append(rows, sqltypes.Row{
			iv(int64(i)), sv(kinds[r.Intn(len(kinds))]), iv(int64(1930 + r.Intn(95))), iv(int64(r.Intn(30))),
		})
	}
	if err := db.InsertRows("title", rows); err != nil {
		return nil, err
	}

	nName := n(nameScale)
	rows = nil
	genders := []string{"m", "f"}
	for i := 0; i < nName; i++ {
		rows = append(rows, sqltypes.Row{iv(int64(i)), sv(genders[r.Intn(2)]), iv(int64(r.Intn(1000)))})
	}
	if err := db.InsertRows("name", rows); err != nil {
		return nil, err
	}

	nComp := n(companyScale)
	rows = nil
	for i := 0; i < nComp; i++ {
		rows = append(rows, sqltypes.Row{iv(int64(i)), sv(countries[r.Intn(len(countries))]), iv(int64(r.Intn(500)))})
	}
	if err := db.InsertRows("company_name", rows); err != nil {
		return nil, err
	}

	nKw := n(keywordScale)
	rows = nil
	for i := 0; i < nKw; i++ {
		rows = append(rows, sqltypes.Row{iv(int64(i)), iv(int64(r.Intn(800)))})
	}
	if err := db.InsertRows("keyword", rows); err != nil {
		return nil, err
	}

	nCast := n(castScale)
	rows = nil
	for i := 0; i < nCast; i++ {
		rows = append(rows, sqltypes.Row{
			iv(int64(i)), iv(int64(r.Intn(nName))), iv(int64(r.Intn(nTitle))),
			sv(roles[r.Intn(len(roles))]), iv(int64(r.Intn(50))),
		})
	}
	if err := db.InsertRows("cast_info", rows); err != nil {
		return nil, err
	}

	nMC := n(movieCompScale)
	rows = nil
	for i := 0; i < nMC; i++ {
		rows = append(rows, sqltypes.Row{
			iv(int64(i)), iv(int64(r.Intn(nTitle))), iv(int64(r.Intn(nComp))), iv(int64(1 + r.Intn(4))),
		})
	}
	if err := db.InsertRows("movie_companies", rows); err != nil {
		return nil, err
	}

	nMK := n(movieKwScale)
	rows = nil
	for i := 0; i < nMK; i++ {
		rows = append(rows, sqltypes.Row{iv(int64(i)), iv(int64(r.Intn(nTitle))), iv(int64(r.Intn(nKw)))})
	}
	if err := db.InsertRows("movie_keyword", rows); err != nil {
		return nil, err
	}

	nMI := n(infoScale)
	rows = nil
	for i := 0; i < nMI; i++ {
		rows = append(rows, sqltypes.Row{
			iv(int64(i)), iv(int64(r.Intn(nTitle))), iv(int64(1 + r.Intn(len(infoTypes)))), iv(int64(r.Intn(10000))),
		})
	}
	if err := db.InsertRows("movie_info", rows); err != nil {
		return nil, err
	}
	db.Analyze()
	return db, nil
}

// Queries returns the join-heavy templates (JOB-style families 1a..13d
// condensed into 12 shapes) with deterministic parameters.
func Queries(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	yr := func() int { return 1960 + r.Intn(60) }
	return []string{
		// 2-way: production company filter.
		fmt.Sprintf(`SELECT t.id, t.production_year FROM title t
			JOIN movie_companies mc ON mc.movie_id = t.id
			JOIN company_name cn ON cn.id = mc.company_id
			WHERE cn.country_code = '%s' AND t.production_year > %d LIMIT 100`,
			countries[r.Intn(len(countries))], yr()),
		// keyword join.
		fmt.Sprintf(`SELECT t.id FROM title t
			JOIN movie_keyword mk ON mk.movie_id = t.id
			JOIN keyword k ON k.id = mk.keyword_id
			WHERE k.phonetic = %d AND t.kind = 'movie' LIMIT 100`, r.Intn(800)),
		// cast + title.
		fmt.Sprintf(`SELECT n.id, t.production_year FROM name n
			JOIN cast_info ci ON ci.person_id = n.id
			JOIN title t ON t.id = ci.movie_id
			WHERE ci.role = 'director' AND n.gender = 'f' AND t.production_year BETWEEN %d AND %d LIMIT 50`,
			yr(), yr()+20),
		// info filter + company.
		fmt.Sprintf(`SELECT t.id FROM title t
			JOIN movie_info mi ON mi.movie_id = t.id
			JOIN movie_companies mc ON mc.movie_id = t.id
			WHERE mi.info_type = %d AND mi.info_val > %d AND mc.company_type = %d LIMIT 100`,
			1+r.Intn(5), r.Intn(9000), 1+r.Intn(4)),
		// 5-way snowflake.
		fmt.Sprintf(`SELECT t.id, cn.country_code FROM title t
			JOIN movie_companies mc ON mc.movie_id = t.id
			JOIN company_name cn ON cn.id = mc.company_id
			JOIN movie_keyword mk ON mk.movie_id = t.id
			JOIN keyword k ON k.id = mk.keyword_id
			WHERE k.phonetic = %d AND cn.country_code = '%s' AND t.production_year > %d LIMIT 50`,
			r.Intn(800), countries[r.Intn(len(countries))], yr()),
		// cast aggregation.
		fmt.Sprintf(`SELECT ci.role, COUNT(*) FROM cast_info ci
			JOIN title t ON t.id = ci.movie_id
			WHERE t.production_year = %d GROUP BY ci.role`, yr()),
		// movie info aggregation by type.
		fmt.Sprintf(`SELECT mi.info_type, COUNT(*), AVG(mi.info_val) FROM movie_info mi
			JOIN title t ON t.id = mi.movie_id
			WHERE t.kind = '%s' GROUP BY mi.info_type`, kinds[r.Intn(len(kinds))]),
		// 6-way: person through keyword.
		fmt.Sprintf(`SELECT n.id FROM name n
			JOIN cast_info ci ON ci.person_id = n.id
			JOIN title t ON t.id = ci.movie_id
			JOIN movie_keyword mk ON mk.movie_id = t.id
			JOIN keyword k ON k.id = mk.keyword_id
			JOIN movie_info mi ON mi.movie_id = t.id
			WHERE k.phonetic = %d AND mi.info_type = %d AND n.gender = 'm' LIMIT 20`,
			r.Intn(800), 1+r.Intn(5)),
		// ordered scan with limit.
		fmt.Sprintf(`SELECT id, production_year FROM title
			WHERE kind = '%s' ORDER BY production_year LIMIT 25`, kinds[r.Intn(len(kinds))]),
		// episode range.
		fmt.Sprintf(`SELECT id FROM title WHERE kind = 'tv series' AND episode_nr BETWEEN %d AND %d LIMIT 200`,
			r.Intn(10), 15+r.Intn(15)),
		// company fan-out count.
		fmt.Sprintf(`SELECT mc.company_id, COUNT(*) FROM movie_companies mc
			JOIN title t ON t.id = mc.movie_id
			WHERE t.production_year > %d GROUP BY mc.company_id LIMIT 100`, yr()),
		// double link-table join.
		fmt.Sprintf(`SELECT t.id FROM title t
			JOIN movie_info mi ON mi.movie_id = t.id
			JOIN movie_keyword mk ON mk.movie_id = t.id
			WHERE mi.info_val BETWEEN %d AND %d AND mk.keyword_id = %d LIMIT 50`,
			r.Intn(4000), 5000+r.Intn(4000), r.Intn(1000)),
	}
}

// tunedIndexes are the 18 secondary indexes the advisor adopts for the
// 48-statement deck (Queries(0) … Queries(3)) on Build(0.5, 1), as table and
// key columns.
var tunedIndexes = [][]string{
	{"cast_info", "movie_id", "person_id"},
	{"cast_info", "movie_id", "role"},
	{"cast_info", "role", "movie_id", "person_id"},
	{"company_name", "country_code"},
	{"company_name", "id", "country_code"},
	{"keyword", "phonetic"},
	{"movie_companies", "company_id", "movie_id"},
	{"movie_companies", "movie_id", "company_id"},
	{"movie_companies", "movie_id", "company_type"},
	{"movie_info", "movie_id", "info_type", "info_val"},
	{"movie_info", "movie_id", "info_val"},
	{"movie_info", "info_type", "movie_id", "info_val"},
	{"movie_keyword", "keyword_id", "movie_id"},
	{"name", "id", "gender"},
	{"title", "production_year"},
	{"title", "id", "production_year"},
	{"title", "id", "kind"},
	{"title", "kind", "episode_nr"},
}

// TunedIndexes returns fresh definitions of the indexes the advisor adopts
// for the deck, named as the advisor names them (the name decides the order
// in which the planner considers indexes, and so its tie-breaks). Tests and
// benchmarks use them to plan the deck on a tuned database.
func TunedIndexes() []*catalog.Index {
	out := make([]*catalog.Index, len(tunedIndexes))
	for i, def := range tunedIndexes {
		table, cols := def[0], def[1:]
		h := fnv.New32a()
		h.Write([]byte(table + ":" + strings.Join(cols, ",")))
		out[i] = &catalog.Index{
			Name:      fmt.Sprintf("aim_%s_%08x", table, h.Sum32()),
			Table:     table,
			Columns:   append([]string(nil), cols...),
			CreatedBy: "aim",
		}
	}
	return out
}
