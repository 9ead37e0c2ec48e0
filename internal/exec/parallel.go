package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Parallel scan driver: a bounded worker pool claims survivor blocks
// off an atomic counter, scans each block independently (scanBlock:
// selection or summary, then per-block aggregate partials, using pooled
// per-worker scratch), and the driver merges the per-block outputs
// strictly in skip-list order after all workers drain. Because aggregate
// partials are merged in the same block order the sequential path uses —
// and blocks with zero matched rows are skipped by both — the parallel
// result is bit-identical to the sequential one: same Result.RowIDs
// sequence, same aggregate IEEE-754 bits, regardless of worker count or
// scheduling.

// blockOut is one survivor block's scan output, indexed by position in
// the survivor list.
type blockOut struct {
	matched  int
	covered  bool
	partials []aggAcc
	rowIDs   []int
}

// scanParallel executes the bound scan over the survivor blocks with
// the given worker count (>= 2, <= len(survivors)). Workers check
// opts.Context between blocks: on cancellation every worker stops
// claiming blocks and the scan returns the context error once the pool
// has drained — no goroutine outlives the call.
func (s *Store) scanParallel(res *Result, preds []kernPred, survivors []int, accs []aggAcc, workers int, opts Options) error {
	outs := make([]blockOut, len(survivors))
	var parts []aggAcc
	if len(accs) > 0 {
		parts = make([]aggAcc, len(survivors)*len(accs))
	}
	var (
		next     atomic.Int64
		canceled atomic.Bool
		wg       sync.WaitGroup
	)
	ctx := opts.Context
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsc := getScratch()
			defer putScratch(wsc)
			for {
				if canceled.Load() {
					return
				}
				idx := int(next.Add(1)) - 1
				if idx >= len(survivors) {
					return
				}
				if ctx != nil && ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				pid := survivors[idx]
				if s.blocks[pid].NumRows() == 0 {
					continue
				}
				out := &outs[idx]
				out.partials = parts[idx*len(accs) : (idx+1)*len(accs)]
				var sel []int32
				sel, out.matched, out.covered = s.scanBlock(wsc, preds, pid, accs, out.partials)
				if opts.CollectRows && out.matched > 0 {
					out.rowIDs = s.appendRowIDs(make([]int, 0, out.matched), pid, sel, out.covered)
				}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return fmt.Errorf("exec: scan canceled: %w", ctx.Err())
	}
	// Deterministic merge in skip-list order.
	for idx, pid := range survivors {
		res.PartitionsRead++
		res.RowsExamined += s.blocks[pid].NumRows()
		out := &outs[idx]
		if out.covered {
			res.PartitionsCovered++
		}
		if out.matched == 0 {
			continue
		}
		res.Matched += out.matched
		for i := range accs {
			mergeAgg(&accs[i], &out.partials[i])
		}
		if opts.CollectRows {
			res.RowIDs = append(res.RowIDs, out.rowIDs...)
		}
	}
	res.Workers = workers
	return nil
}
