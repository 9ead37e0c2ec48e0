package table

import "sync"

// StringDict is the dictionary of one string column: every distinct
// value is assigned a dense uint32 code in first-appearance order, so
// the column is stored as codes and string comparisons become integer
// comparisons. Immutable once published and safe for concurrent use.
//
// This is the one dictionary in the system. A Dataset owns one per
// string column and stores the column itself as []uint32 codes
// (Dataset.Dict, Dataset.StringCodes); datasets derived from it —
// samples, the execution layer's per-partition blocks, a compacted
// base whose tail introduced no new value — share the same *StringDict
// and copy only codes. Everything above reads strings through it:
// layout construction routes IN cuts over codes, BuildPartitioning
// folds each partition's distinct codes into its metadata, and the
// scan kernels probe an IN set translated once into a code bitmap.
//
// A dictionary may hold values no row of a derived dataset uses (a
// block shares its parent's), but never the reverse: a value absent
// from the dictionary is absent from every row encoded against it, so
// an IN set that translates to no codes matches nothing.
type StringDict struct {
	values []string

	// index maps value → code. Dictionaries frozen by Builder.Build
	// inherit the builder's map; Builder.View snapshots of a still-open
	// builder carry only values (the writer's map keeps mutating) and
	// build theirs on the first Code call.
	indexOnce sync.Once
	index     map[string]uint32
}

// Code returns the code of v and whether v occurs in the dictionary.
func (d *StringDict) Code(v string) (uint32, bool) {
	d.indexOnce.Do(func() {
		if d.index != nil {
			return
		}
		d.index = make(map[string]uint32, len(d.values))
		for c, s := range d.values {
			d.index[s] = uint32(c)
		}
	})
	c, ok := d.index[v]
	return c, ok
}

// Value returns the string a code stands for. Codes come from Code or
// from an encoded column, so out-of-range codes are programming errors.
func (d *StringDict) Value(c uint32) string { return d.values[c] }

// Len returns the number of distinct values (the code space size:
// valid codes are [0, Len)).
func (d *StringDict) Len() int { return len(d.values) }

// dictWriter is the mutable, single-owner side of a dictionary: what a
// Builder encodes incoming strings against. It either borrows
// a published dictionary (adopt) — read-only until the first new value
// forces a private copy — or owns its values and index outright.
type dictWriter struct {
	// borrowed is the published dictionary values/index alias, or nil
	// once the writer owns them.
	borrowed *StringDict
	values   []string
	index    map[string]uint32
	// pub is the last snapshot handed out, reused while the writer has
	// gained no value since.
	pub *StringDict
}

// adopt makes the writer encode against src without copying it. Only
// valid while no cell is coded against the writer's previous contents.
func (w *dictWriter) adopt(src *StringDict) {
	src.Code("") // force the index: the writer reads it directly
	w.borrowed, w.values, w.index = src, src.values, src.index
}

// code returns v's code, assigning the next one on first appearance.
func (w *dictWriter) code(v string) uint32 {
	if c, ok := w.index[v]; ok {
		return c
	}
	if w.borrowed != nil {
		// First value the borrowed dictionary lacks: extend a copy.
		w.values = append(make([]string, 0, len(w.values)+1), w.values...)
		index := make(map[string]uint32, len(w.index)+1)
		for s, c := range w.index {
			index[s] = c
		}
		w.index, w.borrowed = index, nil
	} else if w.index == nil {
		w.index = make(map[string]uint32)
	}
	c := uint32(len(w.values))
	w.values = append(w.values, v)
	w.index[v] = c
	return c
}

// recode rewrites codes in place from the code space of from into the
// writer's. Each distinct source value is translated once, new values
// taking the next codes in first-appearance order.
func (w *dictWriter) recode(codes []uint32, from *StringDict) {
	if from == w.borrowed {
		return // same code space
	}
	const unmapped = ^uint32(0)
	remap := make([]uint32, from.Len())
	for i := range remap {
		remap[i] = unmapped
	}
	for i, sc := range codes {
		c := remap[sc]
		if c == unmapped {
			c = w.code(from.values[sc])
			remap[sc] = c
		}
		codes[i] = c
	}
}

// freeze publishes the writer's current contents as an immutable
// dictionary, handing its index over. The writer must not add values
// afterwards (Builder.Build's contract).
func (w *dictWriter) freeze() *StringDict {
	if w.borrowed != nil {
		return w.borrowed
	}
	return &StringDict{values: w.values, index: w.index}
}

// snapshot publishes the values coded so far as an immutable
// dictionary while the writer stays open: a borrowed dictionary as is,
// otherwise the value list clipped to its current length, which later
// appends never overwrite.
func (w *dictWriter) snapshot() *StringDict {
	if w.borrowed != nil {
		return w.borrowed
	}
	if n := len(w.values); w.pub == nil || w.pub.Len() != n {
		w.pub = &StringDict{values: w.values[:n:n]}
	}
	return w.pub
}
