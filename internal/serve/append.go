package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"oreo"
)

// DefaultCompactThreshold triggers an automatic delta fold when a
// table's delta segment reaches this many rows; see
// Config.CompactThreshold. Sized so the always-scanned delta stays
// a small fraction of typical table sizes while folds stay infrequent
// enough to amortize the repartitioning rewrite.
const DefaultCompactThreshold = 8192

// Append lands decoded wire rows in the named table's delta segment:
// the leader-side live write path. Rows are JSON objects mapping every
// schema column to a value (numbers decoded with json.Number so int64
// precision survives the wire); missing or extra columns and
// mistyped cells are client errors that land nothing. The rows land on
// the caller's goroutine, serialized with every other change to the
// table but never waiting for a layout decision, and the call returns
// once they are published (and, on an archiving leader, archived) — a
// client holding the response sees its rows in every subsequent query,
// on the reported epoch. Appends never feed layout decisions directly;
// the rows sit in the unpartitioned delta (scanned by every query)
// until a compaction folds them into the base. The append that brings
// the delta to Config.CompactThreshold also waits for that fold, which
// runs on the table's consumer, and reports it.
func (c *Core) Append(ctx context.Context, table string, rows []map[string]any) (AppendResponse, error) {
	if err := ctx.Err(); err != nil {
		return AppendResponse{}, errCanceled(err)
	}
	sh, err := c.writeShard(table)
	if err != nil {
		return AppendResponse{}, err
	}
	ds, derr := buildAppendRows(sh.ds.Schema(), rows)
	if derr != nil {
		return AppendResponse{}, errInvalid("%s", derr)
	}
	return c.appendDataset(sh, ds)
}

// Compact folds the named table's delta segment into its base layout
// on demand (auto-compaction covers the steady state; this is the
// operational lever and the shutdown hook). Folding an empty delta is
// a no-op that reports the current epoch — safe to call in a settle
// loop.
func (c *Core) Compact(ctx context.Context, table string) (CompactResponse, error) {
	if err := ctx.Err(); err != nil {
		return CompactResponse{}, errCanceled(err)
	}
	sh, err := c.writeShard(table)
	if err != nil {
		return CompactResponse{}, err
	}
	ack, serr := sh.send(shardEvent{kind: evCompact})
	if serr != nil {
		return CompactResponse{}, serr
	}
	if ack.err != nil {
		return CompactResponse{}, errInternal("compacting %q: %s", table, ack.err)
	}
	return CompactResponse{Table: table, Epoch: ack.upd.Epoch, Folded: ack.upd.Folded, DeltaRows: ack.upd.DeltaRows}, nil
}

// writeShard resolves the target of a write-path request: the table
// must exist and this core must own its decision path (appends and
// compactions belong on the leader; followers converge through the
// replicated stream, never through local writes).
func (c *Core) writeShard(table string) (*shard, *Error) {
	sh, ok := c.shards[table]
	if !ok {
		return nil, errNotFound("unknown table %q", table)
	}
	if sh.isReplica() {
		return nil, errInvalid("table %q is a replica; writes belong on the leader", table)
	}
	return sh, nil
}

// appendDataset runs the shared append tail: land the batch, run the
// fold it may owe on the shard's consumer, and shape the
// acknowledgment. A fold error is an auto-compaction failure after the
// rows already landed — reported as an internal error, with the rows
// durable in the delta.
func (c *Core) appendDataset(sh *shard, rows *oreo.Dataset) (AppendResponse, error) {
	upd, fold, err := sh.land(rows)
	if err != nil {
		return AppendResponse{}, err
	}
	if fold {
		// A shard closed since the rows landed refuses the fold; the rows
		// are acked at their own epoch regardless, since a 503 would make a
		// retrying client append them twice.
		if ack, serr := sh.send(shardEvent{kind: evCompact}); serr == nil {
			if ack.err != nil {
				return AppendResponse{}, errInternal("auto-compacting %q after append: %s", sh.table, ack.err)
			}
			upd = ack.upd
		}
	}
	return AppendResponse{Table: sh.table, Epoch: upd.Epoch, Appended: rows.NumRows(), DeltaRows: upd.DeltaRows}, nil
}

// buildAppendRows converts decoded wire rows into a typed dataset over
// the table's schema. Every row must supply exactly the schema's
// columns; every violation names the row and column, so a client can
// fix its payload without guessing.
func buildAppendRows(schema *oreo.Schema, rows []map[string]any) (*oreo.Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("append has no rows")
	}
	b := oreo.NewDatasetBuilder(schema, len(rows))
	vals := make([]oreo.Value, schema.NumCols())
	for i, row := range rows {
		if len(row) > schema.NumCols() {
			keys := make([]string, 0, len(row))
			for k := range row {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if _, ok := schema.Index(k); !ok {
					return nil, fmt.Errorf("row %d: table has no column %q", i, k)
				}
			}
		}
		for c := 0; c < schema.NumCols(); c++ {
			col := schema.Col(c)
			raw, ok := row[col.Name]
			if !ok {
				return nil, fmt.Errorf("row %d: missing column %q", i, col.Name)
			}
			v, err := decodeCell(raw, col.Type)
			if err != nil {
				return nil, fmt.Errorf("row %d, column %q: %w", i, col.Name, err)
			}
			vals[c] = v
		}
		b.AppendRow(vals...)
	}
	return b.Build(), nil
}

// decodeCell converts one decoded JSON value to a typed cell. Integer
// columns insist on integral numbers (a fractional value is a type
// error, not a truncation); numbers arriving as json.Number keep full
// int64 precision. JSON cannot carry NaN or ±Inf, so float cells are
// always finite on this path — non-finite values travel through the
// replicated stream's bit-pattern framing instead.
func decodeCell(raw any, t oreo.ColType) (oreo.Value, error) {
	switch t {
	case oreo.Int64:
		switch n := raw.(type) {
		case json.Number:
			v, err := strconv.ParseInt(n.String(), 10, 64)
			if err != nil {
				return oreo.Value{}, fmt.Errorf("want an int64, got %v", n)
			}
			return oreo.Int(v), nil
		case float64:
			//oreovet:ignore floatbits Trunc-equality is the exact integrality test for rejecting fractional input to int64 columns; NaN correctly fails it
			if n != math.Trunc(n) || math.Abs(n) > 1<<53 {
				return oreo.Value{}, fmt.Errorf("want an int64, got %v", n)
			}
			return oreo.Int(int64(n)), nil
		case int:
			return oreo.Int(int64(n)), nil
		case int64:
			return oreo.Int(n), nil
		}
	case oreo.Float64:
		switch n := raw.(type) {
		case json.Number:
			v, err := n.Float64()
			if err != nil {
				return oreo.Value{}, fmt.Errorf("want a float64, got %v", n)
			}
			return oreo.Float(v), nil
		case float64:
			return oreo.Float(n), nil
		case int:
			return oreo.Float(float64(n)), nil
		case int64:
			return oreo.Float(float64(n)), nil
		}
	case oreo.String:
		if s, ok := raw.(string); ok {
			return oreo.Str(s), nil
		}
	}
	return oreo.Value{}, fmt.Errorf("want a %v, got %T", t, raw)
}
