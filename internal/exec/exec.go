// Package exec is OREO's execution layer: the component that finally
// *reads data*. Everything below it — the cost model, the compiled
// pruning engine, the serving layer's survivor skip-lists — reasons
// about which partitions a scan may skip; this package materializes the
// actual rows arranged per layout and executes scans that read only the
// partitions a skip-list names, re-checking against the data every
// predicate the partition metadata cannot answer. A block meets one of
// three outcomes: skipped (absent from the survivor list, never
// touched), covered (its metadata proves every predicate true for every
// row, so it is answered from its row count and stored sums), or
// scanned (the kernels sweep its predicate columns).
//
// A Store holds one column-major block per partition: the dataset's
// rows regrouped by the partitioning's row→partition assignment, each
// block a small columnar table of its partition's rows. String columns
// arrive dictionary-coded — a table.Dataset stores them as one
// table.StringDict per column plus a code per row — so every block
// shares its dataset's dictionaries and holds only its rows' codes; the
// store keeps no dictionary or code array of its own, and scans compare
// integer codes instead of hashing strings per row.
// Stores are immutable once built and cheap to share; when the
// optimizer reorganizes into a new layout the owner builds a fresh
// Store from the same dataset and atomically swaps it in
// (internal/serve does exactly this, in lockstep with its optimizer
// snapshots).
//
// Scan executes vectorized: predicates bind to typed columnar kernels
// that sweep each scanned block into a selection vector, aggregates
// fold in tight per-column loops over the selected indices, and per-scan
// scratch recycles through a pool so steady-state scans allocate
// nothing beyond their Result (kernels.go). With Options.Parallelism
// > 1 a worker pool scans survivor blocks concurrently and merges
// per-block partials deterministically in skip-list order
// (parallel.go), so results are bit-identical across worker counts.
// ScanInterpreted keeps the original row-at-a-time engine as the
// semantic reference both are property-tested against.
//
// Scan is the paper's premise made observable: the survivor skip-list
// bounds the partitions touched (c(s, q) is exactly the fraction of
// rows examined, covered blocks included), while the per-row predicate
// re-check filters the false positives metadata pruning necessarily
// admits. False negatives are impossible to hide: a partition wrongly
// pruned upstream would change the result set, which is what the
// pruned-scan ≡ full-scan property tests in this package pin down,
// bitwise.
package exec

import (
	"context"
	"fmt"

	"oreo/internal/query"
	"oreo/internal/table"
)

// Store is a dataset materialized per partitioning: one column-major
// block per partition, string columns coded against the dataset's
// dictionaries. Immutable after NewStore and safe for concurrent use.
type Store struct {
	schema *table.Schema
	part   *table.Partitioning
	// blocks holds each partition's rows as its own columnar table,
	// indexed by partition ID. Empty partitions hold zero-row blocks.
	blocks []*table.Dataset
	// rowIDs maps each block row back to its original dataset row index,
	// ascending within a block (blocks preserve dataset order).
	rowIDs [][]int
	// dicts holds the dataset's dictionary per string column (nil
	// entries for non-string columns); every block's codes for that
	// column are codes of it.
	dicts []*table.StringDict
	// sums holds every block's row-order sum over each numeric column,
	// indexed pid*NumCols+ci (zero entries for string columns): the
	// partial foldBlockAgg folds over the whole block, kept so a covered
	// block answers a sum without reading the column.
	sums []blockSum
	// allIDs caches the full-scan survivor list [0..k), so ScanFull
	// allocates none per call.
	allIDs []int
}

// NewStore materializes the dataset's rows into per-partition blocks
// following the partitioning's assignment. String columns need no
// encoding pass: each block copies its rows' codes and shares the
// dataset's dictionary. The partitioning must cover the dataset (same
// row count); partition IDs were already validated by
// table.BuildPartitioning.
func NewStore(ds *table.Dataset, part *table.Partitioning) (*Store, error) {
	if len(part.Assign) != ds.NumRows() {
		return nil, fmt.Errorf("exec: partitioning covers %d rows, dataset has %d",
			len(part.Assign), ds.NumRows())
	}
	schema := ds.Schema()
	k := part.NumPartitions
	// First pass groups row indices by partition, second bulk-copies
	// each group column by column (Builder.AppendRows) — no per-cell
	// boxing or re-validation, since every block shares the dataset's
	// schema. Rebuilds run on a serve shard's decision goroutine after
	// every reorganization, so this path stays O(cells) with small
	// constants.
	rowIDs := make([][]int, k)
	for pid := 0; pid < k; pid++ {
		rowIDs[pid] = make([]int, 0, part.RowsInPartition(pid))
	}
	for r, pid := range part.Assign {
		rowIDs[pid] = append(rowIDs[pid], r)
	}
	s := &Store{
		schema: schema,
		part:   part,
		blocks: make([]*table.Dataset, k),
		rowIDs: rowIDs,
	}
	nc := schema.NumCols()
	s.sums = make([]blockSum, k*nc)
	var all []int32
	for pid := 0; pid < k; pid++ {
		b := table.NewBuilder(schema, len(rowIDs[pid]))
		b.AppendRows(ds, rowIDs[pid])
		blk := b.Build()
		s.blocks[pid] = blk
		// Summed while the block just copied is still in cache, through
		// the fold a scan uses, so the stored partial is the scan's own.
		n := blk.NumRows()
		all = identity(all, n)
		for ci := 0; ci < nc; ci++ {
			if typ := schema.Col(ci).Type; typ != table.String {
				p := foldBlockAgg(blk, all[:n], &aggAcc{op: AggSum, ci: ci, typ: typ})
				s.sums[pid*nc+ci] = blockSum{i: p.i, f: p.f, overflowed: p.overflowed}
			}
		}
	}
	s.dicts = make([]*table.StringDict, schema.NumCols())
	for ci := range s.dicts {
		s.dicts[ci] = ds.Dict(ci)
	}
	s.allIDs = make([]int, k)
	for i := range s.allIDs {
		s.allIDs[i] = i
	}
	return s, nil
}

// MustNewStore is NewStore that panics on error, for partitionings
// known to match their dataset.
func MustNewStore(ds *table.Dataset, part *table.Partitioning) *Store {
	s, err := NewStore(ds, part)
	if err != nil {
		panic(err)
	}
	return s
}

// Partitioning returns the partitioning the store was arranged by.
func (s *Store) Partitioning() *table.Partitioning { return s.part }

// TotalRows returns the number of rows across all blocks.
func (s *Store) TotalRows() int { return s.part.TotalRows }

// Options tunes a Scan.
type Options struct {
	// CollectRows returns the matched rows' original dataset indices in
	// Result.RowIDs. Rows are emitted in (partition, row) visit order:
	// ascending within a block, blocks in skip-list order. Because
	// skip-lists are ascending and a skipped partition contributes no
	// matches, a pruned scan and a full scan emit the *same sequence*,
	// which is what the equality property tests compare.
	CollectRows bool
	// Context, when non-nil, is checked between partition blocks: a
	// canceled scan stops reading and returns the context's error. Rows
	// inside one block are never interrupted (a block is the unit of
	// I/O), so cancellation granularity is one partition. Parallel
	// workers check it before claiming each block and drain without
	// leaking goroutines. Serving transports pass the request context
	// here so a disconnected client stops consuming scan time.
	Context context.Context
	// Parallelism is the number of worker goroutines scanning survivor
	// blocks concurrently. Values <= 1 scan sequentially; values above
	// the survivor count are clamped to it. The result is bit-identical
	// for every worker count — per-block partials merge in skip-list
	// order regardless of which worker produced them — so callers tune
	// this purely for latency (the serving layer defaults it to
	// runtime.NumCPU()).
	Parallelism int
	// Delta, when non-nil, is the table's unpartitioned live-write tail:
	// rows appended since the last compaction, not yet covered by the
	// store's partitioning. The scan visits it after every survivor
	// block, as one extra always-surviving segment — it has no metadata
	// partitions can be pruned by, so skipping it is never sound. Its
	// rows are re-checked row-at-a-time and its aggregate partial merges
	// strictly last in both engines, so kernel ≡ interpreted and
	// pruned ≡ unpruned stay bitwise with a non-empty delta. The delta
	// must share the store's schema (pointer identity).
	Delta *table.Dataset
}

// Result is one scan's outcome.
type Result struct {
	// Matched counts the rows satisfying every predicate.
	Matched int
	// PartitionsRead is the number of blocks visited (the skip-list's
	// length), and RowsExamined the rows they hold — RowsExamined over
	// the table size is exactly the service cost c(s, q) the optimizer
	// predicted for the skip-list. Covered blocks count in full in both:
	// they are the cost model's quantities, not a count of cells touched.
	PartitionsRead int
	RowsExamined   int
	// Aggs holds one result per requested aggregate, in request order.
	Aggs []AggValue
	// RowIDs holds the matched rows' original dataset indices when
	// Options.CollectRows is set; nil otherwise. Delta rows are indexed
	// past the base: delta row r reports TotalRows()+r.
	RowIDs []int
	// DeltaRows is the number of live-write tail rows examined (zero
	// without Options.Delta). They are included in RowsExamined — the
	// delta is always read in full — but not in PartitionsRead, which
	// counts base partitions only.
	DeltaRows int
	// PartitionsCovered is how many of the PartitionsRead blocks the
	// partition metadata proved every predicate true for, and the scan
	// therefore answered from block summaries instead of reading their
	// predicate columns. Purely observational, like Workers: results do
	// not depend on it, and ScanInterpreted always reports zero.
	PartitionsCovered int
	// Workers is the number of scan workers actually used: 1 for a
	// sequential scan, Options.Parallelism clamped to the survivor
	// count otherwise. Purely observational — results do not depend on
	// it — and surfaced so serving metrics can count parallel scans.
	Workers int
}

// validateSurvivors checks the skip-list shape every scan requires:
// strictly ascending partition IDs within range — the shape
// Decision.SurvivorPartitions produces — so accidental duplicates fail
// loudly instead of double-counting.
func (s *Store) validateSurvivors(survivors []int) error {
	prev := -1
	for _, pid := range survivors {
		if pid < 0 || pid >= len(s.blocks) {
			return fmt.Errorf("exec: survivor partition %d out of range [0,%d)", pid, len(s.blocks))
		}
		if pid <= prev {
			return fmt.Errorf("exec: survivor list not strictly ascending at partition %d", pid)
		}
		prev = pid
	}
	return nil
}

// Scan executes the query over exactly the listed partitions: in each
// block named by survivors every row is re-checked against the query's
// predicates (row semantics identical to query.Query.MatchRow), so
// partitions the metadata admitted wrongly are filtered out row by row
// — except where the block's metadata already proves a predicate true
// for all its rows (selectBlock). The query is bound once into typed
// columnar kernels; unknown columns or type-mismatched predicates
// match no rows, exactly as MatchRow treats them. survivors must be
// strictly ascending partition IDs within range.
func (s *Store) Scan(q query.Query, survivors []int, aggs []AggSpec, opts Options) (Result, error) {
	sc := getScratch()
	defer putScratch(sc)
	accs, err := bindAggsInto(sc.accs[:0], s.schema, aggs)
	sc.accs = accs
	if err != nil {
		return Result{}, err
	}
	if err := s.validateSurvivors(survivors); err != nil {
		return Result{}, err
	}
	never := s.bindKernels(sc, q)

	var res Result
	res.Workers = 1
	if opts.CollectRows {
		res.RowIDs = []int{}
	}
	workers := opts.Parallelism
	if workers > len(survivors) {
		workers = len(survivors)
	}
	if workers > 1 && !never {
		err = s.scanParallel(&res, sc.preds, survivors, accs, workers, opts)
	} else {
		err = s.scanSequential(&res, sc, survivors, accs, never, opts)
	}
	if err != nil {
		return Result{}, err
	}
	if err := s.scanDelta(&res, q, accs, sc.blockPartials(len(accs)), opts); err != nil {
		return Result{}, err
	}
	res.Aggs = make([]AggValue, len(accs))
	for i := range accs {
		res.Aggs[i] = accs[i].value()
	}
	return res, nil
}

// scanDelta executes the query over the live-write tail, when the scan
// carries one. The tail is a single unpartitioned segment visited after
// every survivor block: rows are re-checked through the interpreted
// row filter (shared verbatim by both engines, so they agree on the
// delta trivially), the tail's aggregate partial merges last — the same
// per-block merge discipline the base scan uses, preserving bitwise
// results across engines and skip-lists — and matched rows are indexed
// past the base (TotalRows()+r). Parallel scans run it sequentially
// after the pool drains, inside the ordered merge.
func (s *Store) scanDelta(res *Result, q query.Query, accs, partials []aggAcc, opts Options) error {
	delta := opts.Delta
	if delta == nil || delta.NumRows() == 0 {
		return nil
	}
	if delta.Schema() != s.schema {
		return fmt.Errorf("exec: delta segment schema differs from the store's")
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return fmt.Errorf("exec: scan canceled: %w", err)
		}
	}
	n := delta.NumRows()
	res.DeltaRows = n
	res.RowsExamined += n
	f := bindFilter(s.schema, q)
	if f.never {
		return nil
	}
	for i := range accs {
		partials[i] = aggAcc{op: accs[i].op, col: accs[i].col, ci: accs[i].ci, typ: accs[i].typ,
			valid: accs[i].op == AggCount || accs[i].op == AggSum}
	}
	base := s.TotalRows()
	matched := 0
	for r := 0; r < n; r++ {
		if !f.match(delta, r) {
			continue
		}
		matched++
		for i := range partials {
			partials[i].add(delta, r)
		}
		if opts.CollectRows {
			res.RowIDs = append(res.RowIDs, base+r)
		}
	}
	if matched == 0 {
		return nil
	}
	res.Matched += matched
	for i := range accs {
		mergeAgg(&accs[i], &partials[i])
	}
	return nil
}

// scanSequential is the single-goroutine kernel path: per survivor
// block, run the selection kernels, fold aggregate partials, merge in
// place. Zero allocations steady-state: selection vector, bound
// predicates, and accumulators all live in pooled scratch.
func (s *Store) scanSequential(res *Result, sc *scanScratch, survivors []int, accs []aggAcc, never bool, opts Options) error {
	ctx := opts.Context
	partials := sc.blockPartials(len(accs))
	for _, pid := range survivors {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("exec: scan canceled: %w", err)
			}
		}
		n := s.blocks[pid].NumRows()
		res.PartitionsRead++
		res.RowsExamined += n
		if never || n == 0 {
			continue
		}
		sel, matched, covered := s.scanBlock(sc, sc.preds, pid, accs, partials)
		if covered {
			res.PartitionsCovered++
		}
		if matched == 0 {
			continue
		}
		res.Matched += matched
		for i := range accs {
			mergeAgg(&accs[i], &partials[i])
		}
		if opts.CollectRows {
			res.RowIDs = s.appendRowIDs(res.RowIDs, pid, sel, covered)
		}
	}
	return nil
}

// ScanInterpreted executes the same contract as Scan with the original
// row-at-a-time engine: every predicate re-checked per row through a
// type-switching filter, aggregates folded row by row into per-block
// partials merged in skip-list order (the same merge the kernels use,
// so the two engines agree bitwise — including float sum association).
// It is kept as the semantic reference the vectorized and parallel
// paths are property-tested against, and as the "before" baseline of
// the bench trajectory.
func (s *Store) ScanInterpreted(q query.Query, survivors []int, aggs []AggSpec, opts Options) (Result, error) {
	accs, err := bindAggs(s.schema, aggs)
	if err != nil {
		return Result{}, err
	}
	if err := s.validateSurvivors(survivors); err != nil {
		return Result{}, err
	}
	f := bindFilter(s.schema, q)
	var res Result
	res.Workers = 1
	if opts.CollectRows {
		res.RowIDs = []int{}
	}
	partials := make([]aggAcc, len(accs))
	for _, pid := range survivors {
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				return Result{}, fmt.Errorf("exec: scan canceled: %w", err)
			}
		}
		blk := s.blocks[pid]
		n := blk.NumRows()
		res.PartitionsRead++
		res.RowsExamined += n
		if f.never {
			continue
		}
		for i := range accs {
			partials[i] = aggAcc{op: accs[i].op, col: accs[i].col, ci: accs[i].ci, typ: accs[i].typ,
				valid: accs[i].op == AggCount || accs[i].op == AggSum}
		}
		ids := s.rowIDs[pid]
		matched := 0
		for r := 0; r < n; r++ {
			if !f.match(blk, r) {
				continue
			}
			matched++
			for i := range partials {
				partials[i].add(blk, r)
			}
			if opts.CollectRows {
				res.RowIDs = append(res.RowIDs, ids[r])
			}
		}
		if matched == 0 {
			continue
		}
		res.Matched += matched
		for i := range accs {
			mergeAgg(&accs[i], &partials[i])
		}
	}
	if err := s.scanDelta(&res, q, accs, partials, opts); err != nil {
		return Result{}, err
	}
	res.Aggs = make([]AggValue, len(accs))
	for i := range accs {
		res.Aggs[i] = accs[i].value()
	}
	return res, nil
}

// ScanFull executes the query over every partition — the reference scan
// the pruned-scan equality property compares against, and the fallback
// when no skip-list is available.
func (s *Store) ScanFull(q query.Query, aggs []AggSpec, opts Options) (Result, error) {
	return s.Scan(q, s.allIDs, aggs, opts)
}
