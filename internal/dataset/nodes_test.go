package dataset

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// sortedRows is an order segment's definition: rows, repeats counted,
// ascending by OrderKey of col, ties by row id.
func sortedRows(rows []int, col []float64) []int {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b int) int {
		return cmp.Or(cmp.Compare(OrderKey(col[a]), OrderKey(col[b])), cmp.Compare(a, b))
	})
	return out
}

// FuzzNodes grows a tree on node lists and holds every split to its
// definition. The seed draws a dataset whose columns take a few levels,
// so ties are common, and a root of bootstrap rows with repeats (boot)
// or of every row once in random order. Each byte triple of ops then
// splits a node: which node, which feature, and whether by a value the
// node holds or by a bin cut, with the orders partitioned or not. After
// each split:
//
//   - the order segments of every node whose orders were partitioned all
//     the way down equal its rows in SortedOrders' order;
//   - the split node's rows are its left rows, then its right rows, each
//     in their prior order, the returned count is the left side's, and
//     no row outside the node moved;
//   - a bin-cut split gives the row list a value split on the cut's edge
//     gives.
func FuzzNodes(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(1); seed <= 16; seed++ {
		ops := make([]byte, 90)
		rng.Read(ops)
		if seed%4 != 0 {
			// Value splits that partition the orders, so that nodes
			// deep down still have sorted orders to check.
			for i := 2; i < len(ops); i += 3 {
				ops[i] = ops[i]&^1 | 2
			}
		}
		f.Add(seed, seed%2 == 0, ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, boot bool, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n, m, levels := 1+rng.Intn(40), 1+rng.Intn(4), 1+rng.Intn(5)
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, m)
			for j := range x[i] {
				x[i][j] = float64(rng.Intn(levels))
			}
		}
		d := MustNew(x, make([]float64, n))
		cols, bins := d.Columns(), d.Bins(2+rng.Intn(4))
		nd := NewNodes(n, d.SortedOrders())
		if boot {
			root := make([]int, n)
			for i := range root {
				root[i] = rng.Intn(n)
			}
			nd.Bootstrap(root)
		} else {
			nd.Start(rng.Perm(n))
		}

		type node struct {
			lo, hi int
			sorted bool // orders partitioned at every split above
		}
		nodes := []node{{0, n, true}}
		checkOrders := func() {
			t.Helper()
			for _, nod := range nodes {
				if !nod.sorted {
					continue
				}
				for j, col := range cols {
					want := sortedRows(nd.Rows[nod.lo:nod.hi], col)
					if got := nd.Orders[j][nod.lo:nod.hi]; !slices.Equal(got, want) {
						t.Fatalf("node [%d, %d) feature %d: order %v, want %v", nod.lo, nod.hi, j, got, want)
					}
				}
			}
		}
		checkOrders()
		for ; len(ops) >= 3 && len(nodes) > 0; ops = ops[3:] {
			k := int(ops[0]) % len(nodes)
			nod, feat := nodes[k], int(ops[1])%m
			byCut, orders, pick := ops[2]&1 == 1 && bins.NumBins(feat) > 1, ops[2]&2 == 2, int(ops[2]>>2)
			before := slices.Clone(nd.Rows)
			col := cols[feat]
			var nl int
			var goesLeft func(r int) bool
			if byCut {
				codes, cut := bins.ColumnCodes(feat), pick%(bins.NumBins(feat)-1)
				twin := &Nodes{Rows: slices.Clone(nd.Rows), left: make([]bool, n), scratch: make([]int, n)}
				twinNL := twin.Split(nod.lo, nod.hi, col, bins.Edge(feat, cut), false)
				nl = nd.SplitCut(nod.lo, nod.hi, codes, uint8(cut))
				if nl != twinNL || !slices.Equal(nd.Rows, twin.Rows) {
					t.Fatalf("SplitCut(feature %d, cut %d) = %v, %d; the value split on its edge gives %v, %d",
						feat, cut, nd.Rows, nl, twin.Rows, twinNL)
				}
				goesLeft = func(r int) bool { return codes[r] <= uint8(cut) }
				orders = false
			} else {
				split := col[before[nod.lo+pick%(nod.hi-nod.lo)]]
				nl = nd.Split(nod.lo, nod.hi, col, split, orders)
				goesLeft = func(r int) bool { return col[r] <= split }
			}
			var left, right []int
			for _, r := range before[nod.lo:nod.hi] {
				if goesLeft(r) {
					left = append(left, r)
				} else {
					right = append(right, r)
				}
			}
			want := slices.Concat(before[:nod.lo], left, right, before[nod.hi:])
			if nl != len(left) || !slices.Equal(nd.Rows, want) {
				t.Fatalf("split of node [%d, %d) on feature %d: rows %v, left %d; want %v, %d",
					nod.lo, nod.hi, feat, nd.Rows, nl, want, len(left))
			}
			nodes = slices.Delete(nodes, k, k+1)
			for _, c := range []node{{nod.lo, nod.lo + nl, nod.sorted && orders}, {nod.lo + nl, nod.hi, nod.sorted && orders}} {
				if c.hi > c.lo {
					nodes = append(nodes, c)
				}
			}
			checkOrders()
		}
	})
}
