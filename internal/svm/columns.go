package svm

import (
	"encoding/binary"
	"math"
	"sync"

	"sentomist/internal/stats"
)

// groups partitions a problem's samples into duplicate groups: samples
// whose Q rows are bitwise equal because their vectors are. Event-handling
// intervals overwhelmingly repeat the same code path, so an l-sample batch
// typically holds only a handful of groups. The solver keeps one gradient
// and one training decision per group and reads Q through group-indexed
// columns (see gramProvider); only α stays per sample.
//
// Members of a group are linked in ascending sample order, so the solver can
// walk from one member to the next without per-group slices, and growing a
// problem appends to the lists instead of rebuilding them.
type groups struct {
	of         []int // sample -> group
	next       []int // sample -> next member of its group, -1 after the last
	head, tail []int // group -> first (the representative) / last member
}

// add appends one sample to group g; g == count() opens a new group.
func (gr *groups) add(g int) {
	k := len(gr.of)
	gr.of = append(gr.of, g)
	gr.next = append(gr.next, -1)
	if g == len(gr.head) {
		gr.head = append(gr.head, k)
		gr.tail = append(gr.tail, k)
		return
	}
	gr.next[gr.tail[g]] = k
	gr.tail[g] = k
}

func (gr *groups) count() int { return len(gr.head) }

// singletons puts each of l samples in its own group: the dense-sample
// path, which does not deduplicate.
func singletons(l int) *groups {
	gr := &groups{of: make([]int, l), next: make([]int, l), head: make([]int, l)}
	for k := range gr.of {
		gr.of[k], gr.next[k], gr.head[k] = k, -1, k
	}
	gr.tail = gr.head
	return gr
}

// The SMO solver reads the Gram matrix exclusively through full group
// columns: gradient initialization walks the columns carrying initial mass,
// each update step needs the two working-set columns, and Gram-reuse scoring
// walks the support-vector columns. gramProvider is that access path. The
// dense path materializes every column upfront; the cached path memoizes
// columns in an LRU bounded by Config.CacheBytes and computes misses on
// demand. Both hand the solver the very same float64 cell values, so the
// trained model is bit-identical regardless of provider or cache size.
type gramProvider interface {
	// col returns the column of sample j's group, indexed by group:
	// col(j)[b] == Q[k][j] for every sample k in group b. The returned
	// slice is read-only and guaranteed valid until the second following
	// col call (the cache never evicts its two most recently returned
	// columns), which is exactly the pinning the solver needs.
	col(j int) []float64
	groups() *groups
}

// denseMatrix adapts a fully materialized symmetric group-by-group Gram
// block: the stored rows mirror the upper/lower triangle, so row b IS
// column b.
type denseMatrix struct {
	q   [][]float64
	grp *groups
}

func (m denseMatrix) col(j int) []float64 { return m.q[m.grp.of[j]] }
func (m denseMatrix) groups() *groups     { return m.grp }

// columnSource computes group columns from scratch — the miss path behind
// colCache. Implementations must write Q[b][g] into dst[b] with the same
// evaluation-argument orientation buildGram uses (larger index first), so a
// cached cell is the identical float64 the dense build produces.
type columnSource interface {
	groups() *groups
	// fill writes group g's column into dst (length groups().count()).
	fill(g int, dst []float64)
}

// denseColSource evaluates columns over dense samples, one group per
// sample.
type denseColSource struct {
	samples [][]float64
	kernel  Kernel
	workers int
	grp     *groups
}

func (s *denseColSource) groups() *groups { return s.grp }

func (s *denseColSource) fill(j int, dst []float64) {
	sj := s.samples[j]
	parallelRanges(len(dst), s.workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			// buildGram stores Q[a][b] (a >= b) as Eval(samples[a],
			// samples[b]); keep that argument order per cell.
			if k >= j {
				dst[k] = s.kernel.Eval(s.samples[k], sj)
			} else {
				dst[k] = s.kernel.Eval(sj, s.samples[k])
			}
		}
	})
}

// sparseColSource evaluates columns over sparse samples with duplicate
// collapsing: one kernel evaluation per pair of group representatives.
// Kernel values depend solely on vector contents, so a group column holds
// exactly the values a pairwise build would produce for every member.
//
// The source is growable: extendTo appends newly arrived samples to the
// dedup state without disturbing existing group assignments, which is what
// lets an online refit keep kernel columns cached across solves (see
// Incremental) — old samples keep their groups, new samples join existing
// groups or open new ones.
type sparseColSource struct {
	samples []stats.Sparse
	kernel  SparseKernel
	grp     groups
	seen    map[string]int // dedup key -> group (persistent across extendTo)
	keyBuf  []byte
	workers int

	// Fast mode (enableFastEval): evaluate new cells through the kernel's
	// norms identity — a sparse dot over shared indices per pair instead of
	// a merge over the union — using one cached squared norm per group
	// representative. Values then agree with EvalSparse to floating-point
	// accuracy rather than bit-for-bit, so only callers operating under an
	// ε-equivalence discipline (Incremental's carried warm refits) turn it
	// on; every cold solve keeps the exact merge.
	normKernel NormSparseKernel
	norms      []float64 // group -> ‖rep‖², maintained while fast is set
	fast       bool
}

func newSparseColSource(samples []stats.Sparse, kernel SparseKernel, workers int) *sparseColSource {
	s := &sparseColSource{
		kernel:  kernel,
		grp:     groups{of: make([]int, 0, len(samples)), next: make([]int, 0, len(samples))},
		seen:    make(map[string]int),
		workers: workers,
	}
	s.normKernel, _ = kernel.(NormSparseKernel)
	s.extendTo(samples)
	return s
}

// enableFastEval switches all subsequent cell evaluations to the norms
// identity, when the kernel supports it. Already-filled cells are untouched.
func (s *sparseColSource) enableFastEval() {
	if s.normKernel == nil {
		return
	}
	s.fast = true
	s.ensureNorms()
}

func (s *sparseColSource) ensureNorms() {
	for g := len(s.norms); g < s.grp.count(); g++ {
		s.norms = append(s.norms, s.samples[s.grp.head[g]].SqNorm())
	}
}

// extendTo rebinds the source to the full current batch, deduplicating only
// the tail beyond what was already absorbed. The prefix of all must be
// bitwise identical to the previous batch (same vector contents; the
// backing slices may differ), so existing group assignments — and any
// kernel values derived from them — remain exact. Only bit-identical
// vectors share a group (the key is the raw index/value bytes): a missed
// match such as ±0 merely costs an extra group, never correctness.
func (s *sparseColSource) extendTo(all []stats.Sparse) {
	s.samples = all
	for i := len(s.grp.of); i < len(all); i++ {
		key := s.keyBuf[:0]
		sm := all[i]
		for k, idx := range sm.Idx {
			key = binary.LittleEndian.AppendUint32(key, uint32(idx))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(sm.Val[k]))
		}
		s.keyBuf = key[:0]
		gi, ok := s.seen[string(key)]
		if !ok {
			gi = s.grp.count()
			s.seen[string(key)] = gi
		}
		s.grp.add(gi)
	}
	if s.fast {
		s.ensureNorms()
	}
}

// release drops the sample references so a caller can let a replayed batch
// be collected between refits; the next extendTo rebinds bitwise-identical
// content. Dedup state, group assignments, and cached columns stay valid.
func (s *sparseColSource) release() { s.samples = nil }

func (s *sparseColSource) groups() *groups { return &s.grp }

// evalCell computes the kernel value between group b's representative and
// rg (group g's representative), honoring fast mode and buildGram's
// argument orientation (larger group index first).
func (s *sparseColSource) evalCell(b, g int, rg stats.Sparse) float64 {
	rb := s.samples[s.grp.head[b]]
	if s.fast {
		if b >= g {
			return s.normKernel.EvalSparseNorms(rb, rg, s.norms[b], s.norms[g])
		}
		return s.normKernel.EvalSparseNorms(rg, rb, s.norms[g], s.norms[b])
	}
	if b >= g {
		return s.kernel.EvalSparse(rb, rg)
	}
	return s.kernel.EvalSparse(rg, rb)
}

func (s *sparseColSource) fill(g int, dst []float64) { s.fillTail(g, dst, 0) }

// fillTail evaluates dst[from:], group g's cells against groups from..
// len(dst)-1. After extendTo grew the source, a cached column keeps its old
// cells (group values never change) and only (new group, this column) pairs
// cost kernel evaluations; the extended column is bit-identical to a
// from-scratch fill.
func (s *sparseColSource) fillTail(g int, dst []float64, from int) {
	rg := s.samples[s.grp.head[g]]
	parallelRanges(len(dst)-from, s.workers, func(lo, hi int) {
		for b := from + lo; b < from+hi; b++ {
			dst[b] = s.evalCell(b, g, rg)
		}
	})
}

// minParallelFill is the smallest per-column work that justifies fanning a
// fill across goroutines; below it the spawn overhead dominates.
const minParallelFill = 4096

// parallelRanges splits [0,n) into contiguous chunks across the bounded
// worker pool. Cells are written to disjoint destinations, so the result
// is independent of scheduling.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < minParallelFill {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// colEntry is one resident column in the LRU. After the source grows, a
// resident column stays short (len(col) is the group count at its last
// fill) until the solver actually asks for it, and only then pays for its
// missing tail.
type colEntry struct {
	key        int
	col        []float64
	prev, next *colEntry
}

// colCache is the libsvm-style kernel cache: an LRU of full group columns
// bounded by a byte budget. It is pure memoization — a hit returns exactly
// the float64s a miss would recompute — so the solver's result is
// independent of the budget. At least two columns are always resident (the
// solver holds the two working-set columns at once), and evicted slices are
// recycled into the incoming column, so steady-state misses allocate
// nothing.
type colCache struct {
	src     columnSource
	entries map[int]*colEntry
	head    *colEntry // most recently used
	tail    *colEntry // next to evict
	capCols int

	hits, misses int64
}

// budgetCols translates a byte budget into a column capacity over g
// groups, each column costing 8·g bytes: at least two columns (the solver
// pins the two working-set columns), at most one per group.
func budgetCols(budgetBytes int64, g int) int {
	capCols := 2
	if g > 0 {
		if byBudget := budgetBytes / int64(8*g); byBudget > 2 {
			if byBudget > int64(g) {
				capCols = g
			} else {
				capCols = int(byBudget)
			}
		}
	}
	if capCols < 2 {
		capCols = 2
	}
	return capCols
}

func newColCache(src columnSource, budgetBytes int64) *colCache {
	capCols := budgetCols(budgetBytes, src.groups().count())
	return &colCache{
		src:     src,
		entries: make(map[int]*colEntry, capCols),
		capCols: capCols,
	}
}

func (c *colCache) groups() *groups { return c.src.groups() }

// grow re-budgets the cache after its sparse source absorbed new samples
// (extendTo). Resident columns are NOT eagerly extended: each keeps its
// length and pays for its missing tail only if and when the solver asks for
// it again (see col) — eager extension would spend (new group × resident
// column) kernel evaluations on columns the next solve may never touch.
// When the per-column footprint pushes the resident set past the new
// budget, least-recently-used columns are dropped first.
func (c *colCache) grow(budgetBytes int64) {
	c.capCols = budgetCols(budgetBytes, c.src.groups().count())
	for len(c.entries) > c.capCols && c.tail != nil {
		e := c.tail
		c.detach(e)
		delete(c.entries, e.key)
	}
}

// resize returns col with length n, reusing its backing array when it fits
// and preserving the already-filled prefix otherwise.
func resize(col []float64, n int) []float64 {
	if cap(col) >= n {
		return col[:n]
	}
	grown := make([]float64, n)
	copy(grown, col)
	return grown
}

func (c *colCache) col(j int) []float64 {
	grp := c.src.groups()
	key, g := grp.of[j], grp.count()
	if e := c.entries[key]; e != nil {
		c.hits++
		if from := len(e.col); from < g {
			// The source grew since this column was filled: extend it in
			// place, evaluating only the new groups. Within one solve the
			// group count is fixed, so a pinned working-set slice is never
			// reallocated mid-solve.
			e.col = resize(e.col, g)
			c.src.(*sparseColSource).fillTail(key, e.col, from)
		}
		c.moveToFront(e)
		return e.col
	}
	c.misses++
	var e *colEntry
	if len(c.entries) < c.capCols {
		e = &colEntry{col: make([]float64, g)}
	} else {
		e = c.tail
		c.detach(e)
		delete(c.entries, e.key)
		e.col = resize(e.col, g)
	}
	e.key = key
	c.src.fill(key, e.col)
	c.entries[key] = e
	c.pushFront(e)
	return e.col
}

func (c *colCache) moveToFront(e *colEntry) {
	if c.head == e {
		return
	}
	c.detach(e)
	c.pushFront(e)
}

func (c *colCache) detach(e *colEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *colCache) pushFront(e *colEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
