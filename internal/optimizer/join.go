package optimizer

import (
	"aim/internal/catalog"
	"math"

	"aim/internal/queryinfo"
)

// joinResult is the outcome of the join-order search: a left-deep order of
// instance ordinals with the chosen access path for each position.
type joinResult struct {
	order []int
	paths []*accessPath
	cost  float64
	rows  float64 // estimated output cardinality of the join
}

// dpLimit caps the table count for exhaustive (Selinger) enumeration;
// larger joins fall back to a greedy ordering.
const dpLimit = 8

// search is the state of one planning call: the per-instance contexts, the
// selectivity of each join edge and the memo of picked access paths. It is
// built by planSelectMode and dropped when that call returns; nothing in it
// is shared across statements or goroutines, so the memo needs neither a
// lock nor invalidation.
type search struct {
	o       *Optimizer
	info    *queryinfo.Info
	ctxs    []*instanceContext
	edgeSel []float64 // joinEdgeSelectivity of each info.JoinEdges entry
	// memo holds the cheapest access path per (instance, placed join
	// neighbours); nil for single-table queries and for queries of more
	// than 64 instances.
	memo map[pathKey]*accessPath
	// paths is the candidate list pathFor reuses across enumerations; only
	// the pick outlives one enumeration.
	paths []*accessPath
	// slab backs the access paths the search creates, so a plan costs a few
	// allocations for them rather than one per candidate. A chunk holds one
	// enumeration of every instance.
	slab  []accessPath
	chunk int
}

// pathKey identifies one access-path choice: an instance and which of its
// join neighbours are already placed.
type pathKey struct {
	inst   int
	placed uint64
}

// instSet is a set of table instances, one bit per instance ordinal.
type instSet []uint64

func newInstSet(n int) instSet { return make(instSet, (n+63)/64) }

func (s instSet) has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

func (s instSet) add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

func (o *Optimizer) newSearch(info *queryinfo.Info, cfg *indexForTable) *search {
	s := &search{
		o:       o,
		info:    info,
		ctxs:    make([]*instanceContext, len(info.Layout.Instances)),
		edgeSel: make([]float64, len(info.JoinEdges)),
	}
	for i := range s.ctxs {
		s.ctxs[i] = o.newInstanceContext(info, i, cfg)
		s.chunk += 2 + len(s.ctxs[i].indexes)
	}
	for i, e := range info.JoinEdges {
		s.edgeSel[i] = joinEdgeSelectivity(e, info, o.Stats)
	}
	if n := len(s.ctxs); n > 1 && n <= 64 {
		s.memo = map[pathKey]*accessPath{}
	}
	return s
}

// newPath returns a zeroed access path carved from the slab. A path lives
// as long as the plan that picked it, which keeps its slab chunk alive.
func (s *search) newPath() *accessPath {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]accessPath, 0, s.chunk)
	}
	s.slab = s.slab[:len(s.slab)+1]
	return &s.slab[len(s.slab)-1]
}

// pathFor returns the cheapest access path for inst once the instances in
// placed are joined. An instance's paths depend on placed only through the
// join edges whose other side is placed, so the pick is memoized per
// (inst, placed ∩ neighbours of inst): an exact key, which lets every
// transition of the join search that reaches the same binding share one
// enumeration.
func (s *search) pathFor(inst int, placed instSet) *accessPath {
	var k pathKey
	if s.memo != nil {
		var word uint64
		if len(placed) > 0 {
			word = placed[0]
		}
		k = pathKey{inst: inst, placed: word & s.ctxs[inst].neighbors}
		if p, ok := s.memo[k]; ok {
			return p
		}
	}
	s.paths = s.enumeratePaths(s.ctxs[inst], placed, s.paths[:0])
	p := bestPath(s.paths)
	if s.memo != nil {
		s.memo[k] = p
	}
	return p
}

// searchJoinOrder picks a join order and access paths. When straight is
// true the FROM order is kept as written.
func (s *search) searchJoinOrder(straight bool) *joinResult {
	n := len(s.ctxs)
	s.o.mJoinTables.Observe(float64(n))
	if straight || n == 1 {
		return s.costOrder(fromOrder(n))
	}
	if n <= dpLimit {
		s.o.mJoinDP.Inc()
		return s.searchDP()
	}
	s.o.mJoinGreedy.Inc()
	return s.searchGreedy()
}

// indexForTable is the index configuration visible to one planning search:
// the schema's materialized indexes plus any hypothetical extras.
type indexForTable struct {
	list []*catalog.Index
}

func fromOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// costOrder evaluates one fixed order.
func (s *search) costOrder(order []int) *joinResult {
	res := &joinResult{order: order, paths: make([]*accessPath, 0, len(order))}
	placed := newInstSet(len(s.ctxs))
	outer := 1.0
	for _, inst := range order {
		best := s.pathFor(inst, placed)
		res.paths = append(res.paths, best)
		res.cost += outer * best.probeCost
		outer = s.joinedRows(placed, inst, outer, best)
		placed.add(inst)
	}
	res.rows = outer
	return res
}

// joinedRows propagates cardinality after joining inst into the placed set.
func (s *search) joinedRows(placed instSet, inst int, outer float64, path *accessPath) float64 {
	rows := outer * path.outRows
	for i := range s.info.JoinEdges {
		other, _, _, ok := s.info.JoinEdges[i].Other(inst)
		if ok && placed.has(other) {
			rows *= s.edgeSel[i]
		}
	}
	// Opaque multi-instance conjuncts that become evaluable now.
	for _, cj := range s.info.Conjuncts {
		if cj.Join != nil || cj.Atom != nil || len(cj.Instances) < 2 {
			continue
		}
		appliesNow := false
		allPlaced := true
		for _, i := range cj.Instances {
			if i == inst {
				appliesNow = true
			} else if !placed.has(i) {
				allPlaced = false
			}
		}
		if appliesNow && allPlaced {
			rows *= defaultConjunctSel
		}
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// searchDP runs Selinger-style dynamic programming over instance subsets.
// Each subset keeps only its best left-deep plan: the cost, the output rows
// and the last step; the rest of the order is the best plan of the subset
// without that step, which is final by then (subsets complete in size
// order), so the order is rebuilt from the last steps at the end.
func (s *search) searchDP() *joinResult {
	n := len(s.ctxs)
	type state struct {
		ok   bool
		cost float64
		rows float64
		inst int // the instance joined last
		path *accessPath
	}
	states := make([]state, 1<<n)

	neighbors := make([]int, n)
	for i, ctx := range s.ctxs {
		neighbors[i] = int(ctx.neighbors)
	}
	placed := instSet{0}

	for size := 1; size <= n; size++ {
		for mask := 1; mask < 1<<n; mask++ {
			if popcount(mask) != size {
				continue
			}
			best := &states[mask]
			for inst := 0; inst < n; inst++ {
				if mask&(1<<inst) == 0 {
					continue
				}
				rest := mask &^ (1 << inst)
				prevCost, prevRows := 0.0, 1.0
				if rest != 0 {
					prev := &states[rest]
					if !prev.ok {
						continue
					}
					// Prefer connected expansions: a cartesian step (no
					// edge from inst into rest) is admitted only when no
					// instance of mask outside rest has an edge into rest
					// either (anyConnected).
					if neighbors[inst]&rest == 0 && anyConnected(rest, mask, neighbors) {
						continue
					}
					prevCost, prevRows = prev.cost, prev.rows
				}
				placed[0] = uint64(rest)
				ap := s.pathFor(inst, placed)
				cost := prevCost + prevRows*ap.probeCost
				if best.ok && cost >= best.cost {
					continue
				}
				rows := s.joinedRows(placed, inst, prevRows, ap)
				*best = state{ok: true, cost: cost, rows: rows, inst: inst, path: ap}
			}
		}
	}
	full := 1<<n - 1
	final := states[full]
	if !final.ok {
		// Shouldn't happen, but fall back to FROM order.
		return s.costOrder(fromOrder(n))
	}
	res := &joinResult{order: make([]int, n), paths: make([]*accessPath, n), cost: final.cost, rows: final.rows}
	for mask, pos := full, n-1; mask != 0; pos-- {
		st := &states[mask]
		res.order[pos], res.paths[pos] = st.inst, st.path
		mask &^= 1 << st.inst
	}
	return res
}

// anyConnected reports whether any instance outside rest (but inside mask)
// has a join edge into rest — i.e. a connected expansion exists.
func anyConnected(rest, mask int, neighbors []int) bool {
	for inst, nb := range neighbors {
		if mask&(1<<inst) == 0 || rest&(1<<inst) != 0 {
			continue
		}
		if nb&rest != 0 {
			return true
		}
	}
	return false
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// searchGreedy orders tables by repeatedly appending the cheapest next step.
func (s *search) searchGreedy() *joinResult {
	n := len(s.ctxs)
	res := &joinResult{}
	placed := newInstSet(n)
	outer := 1.0
	for len(res.order) < n {
		bestCost := math.Inf(1)
		bestInst := -1
		var bestAP *accessPath
		for inst := 0; inst < n; inst++ {
			if placed.has(inst) {
				continue
			}
			ap := s.pathFor(inst, placed)
			// Prefer connected expansions by penalizing cartesian steps.
			penalty := 1.0
			if len(res.order) > 0 && !s.hasEdgeToPlaced(inst, placed) {
				penalty = 1e6
			}
			c := outer * ap.probeCost * penalty
			if c < bestCost {
				bestCost = c
				bestInst = inst
				bestAP = ap
			}
		}
		res.cost += outer * bestAP.probeCost
		outer = s.joinedRows(placed, bestInst, outer, bestAP)
		placed.add(bestInst)
		res.order = append(res.order, bestInst)
		res.paths = append(res.paths, bestAP)
	}
	res.rows = outer
	return res
}

func (s *search) hasEdgeToPlaced(inst int, placed instSet) bool {
	for i := range s.info.JoinEdges {
		other, _, _, ok := s.info.JoinEdges[i].Other(inst)
		if ok && placed.has(other) {
			return true
		}
	}
	return false
}
