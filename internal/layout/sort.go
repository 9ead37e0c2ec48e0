package layout

import (
	"fmt"
	"slices"
	"strings"

	"oreo/internal/query"
	"oreo/internal/table"
)

// SortGenerator produces the default layout: sort the dataset by one or
// more predefined columns (typically the arrival-time column) and chop
// it into k equal-sized partitions. This is the "partition by arrival
// time" baseline every system starts from and the initial state of
// OREO's dynamic state space.
type SortGenerator struct {
	// Columns are the sort keys in major-to-minor order.
	Columns []string
}

// NewSortGenerator returns a generator sorting by the given columns.
func NewSortGenerator(columns ...string) *SortGenerator {
	if len(columns) == 0 {
		panic("layout: SortGenerator needs at least one column")
	}
	return &SortGenerator{Columns: columns}
}

// Name implements Generator.
func (g *SortGenerator) Name() string { return "sort" }

// Generate implements Generator. The workload argument is ignored: sort
// layouts are workload-oblivious.
func (g *SortGenerator) Generate(d *table.Dataset, _ []query.Query, k int) *Layout {
	cols := make([]int, 0, len(g.Columns))
	for _, name := range g.Columns {
		ci, ok := d.Schema().Index(name)
		if !ok {
			panic(fmt.Sprintf("layout: sort column %q not in schema", name))
		}
		cols = append(cols, ci)
	}
	order := sortedRows(d, cols)
	assign := chopSorted(order, d.NumRows(), k)
	part := table.MustBuildPartitioning(d, assign, k)
	return New(fmt.Sprintf("sort(%s)", strings.Join(g.Columns, ",")), d.Schema(), part)
}

// sortedRows returns the row indices of d stably sorted by the given
// columns, major to minor. One Int64 key, the boot layout's arrival-time
// sort, takes a radix sort; every other key list a stable merge sort,
// which alone defines the order a NaN (a tie with everything, so the
// comparison is not a strict weak order) leaves behind.
func sortedRows(d *table.Dataset, cols []int) []int {
	if len(cols) == 1 && d.Schema().Col(cols[0]).Type == table.Int64 {
		return radixRows(d.Int64Col(cols[0]))
	}
	keys := make([]sortKey, len(cols))
	for i, c := range cols {
		keys[i] = newSortKey(d, c)
	}
	order := make([]int, d.NumRows())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(ra, rb int) int {
		for i := range keys {
			if cmp := keys[i].compare(ra, rb); cmp != 0 {
				return cmp
			}
		}
		return 0
	})
	return order
}

// radixRows returns the indices of vals in stable ascending order of
// value: a least-significant-digit radix sort over the bytes of
// uint64(v) ^ 1<<63, which order as the int64s do. Every byte's
// histogram comes from one sweep of vals, and a byte every value shares
// is skipped, since its pass would move nothing; a date column varies in
// two of its eight bytes.
func radixRows(vals []int64) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	if len(vals) < 2 {
		return order
	}
	key := func(v int64) uint64 { return uint64(v) ^ 1<<63 }
	var counts [8][256]int
	for _, v := range vals {
		for b := range counts {
			counts[b][byte(key(v)>>(8*b))]++
		}
	}
	var tmp []int
	for b := range counts {
		c := &counts[b]
		if c[byte(key(vals[0])>>(8*b))] == len(vals) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		if tmp == nil {
			tmp = make([]int, len(vals))
		}
		for _, r := range order {
			d := byte(key(vals[r]) >> (8 * b))
			tmp[c[d]] = r
			c[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// sortKey compares two rows on one column through the column's typed
// backing slice, in the order of table.Value.Compare but without boxing
// two Values per comparison, which was most of the sort's cost. typ
// says which of ints, floats, codes (with dict) is set.
type sortKey struct {
	typ    table.ColType
	ints   []int64
	floats []float64
	codes  []uint32
	dict   *table.StringDict
}

func newSortKey(d *table.Dataset, col int) sortKey {
	k := sortKey{typ: d.Schema().Col(col).Type}
	switch k.typ {
	case table.Int64:
		k.ints = d.Int64Col(col)
	case table.Float64:
		k.floats = d.Float64Col(col)
	default:
		k.codes, k.dict = d.StringCodes(col), d.Dict(col)
	}
	return k
}

// compare orders rows a and b. Floats use < and > alone, as
// Value.Compare does: NaN is unordered against everything and -0 equals
// +0, so both read as ties and the stable sort leaves them in row order.
func (k *sortKey) compare(a, b int) int {
	switch k.typ {
	case table.Int64:
		return threeWay(k.ints[a], k.ints[b])
	case table.Float64:
		return threeWay(k.floats[a], k.floats[b])
	}
	if k.codes[a] == k.codes[b] {
		return 0
	}
	return strings.Compare(k.dict.Value(k.codes[a]), k.dict.Value(k.codes[b]))
}

func threeWay[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// chopSorted assigns the rows (listed in sorted order) to k contiguous
// equal-sized partitions and returns the row→partition vector.
func chopSorted(order []int, numRows, k int) []int {
	assign := make([]int, numRows)
	for pos, row := range order {
		pid := pos * k / numRows
		if pid >= k {
			pid = k - 1
		}
		assign[row] = pid
	}
	return assign
}
