// Package alphatree constructs the index trees the paper builds on: the
// alphabetic (order-preserving) search trees of Hu & Tucker [HT71], their
// k-nary generalization used by [SV96] so a tree node fits a wireless
// packet of any size, and plain Huffman trees — the [CYW97/SV96] baseline
// that minimizes tuning time but, as the paper notes, cannot serve as a
// search tree because it does not preserve key order.
//
// In all constructions the leaves are the data items in the given order
// and internal nodes are index nodes; the quality measure is the weighted
// path length Σ W(item)·depth(item), which is proportional to the average
// tuning time of a key lookup on the broadcast.
package alphatree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tree"
)

// Item is one keyed, weighted catalog entry. Keys must be strictly
// ascending for the alphabetic constructions.
type Item struct {
	Label  string
	Key    int64
	Weight float64
}

func validate(items []Item, needKeys bool) error {
	if len(items) == 0 {
		return fmt.Errorf("alphatree: no items")
	}
	for i, it := range items {
		if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return fmt.Errorf("alphatree: item %d has invalid weight %v", i, it.Weight)
		}
		if needKeys && i > 0 && items[i-1].Key >= it.Key {
			return fmt.Errorf("alphatree: keys not strictly ascending at item %d", i)
		}
	}
	return nil
}

// shape is a construction-time tree: leaf >= 0 is an item index,
// otherwise children holds the subtrees left to right.
type shape struct {
	leaf     int
	children []*shape
}

// toTree converts a shape into a tree.Tree, keying data nodes when keyed.
func toTree(items []Item, root *shape, keyed bool) (*tree.Tree, error) {
	b := tree.NewBuilder()
	nextIndex := 1
	var build func(parent tree.ID, s *shape)
	build = func(parent tree.ID, s *shape) {
		if s.leaf >= 0 {
			it := items[s.leaf]
			switch {
			case parent == tree.None && keyed:
				b.AddRootKeyedData(it.Label, it.Key, it.Weight)
			case parent == tree.None:
				b.AddRootData(it.Label, it.Weight)
			case keyed:
				b.AddKeyedData(parent, it.Label, it.Key, it.Weight)
			default:
				b.AddData(parent, it.Label, it.Weight)
			}
			return
		}
		var id tree.ID
		if parent == tree.None {
			id = b.AddRoot(fmt.Sprintf("I%d", nextIndex))
		} else {
			id = b.AddIndex(parent, fmt.Sprintf("I%d", nextIndex))
		}
		nextIndex++
		for _, c := range s.children {
			build(id, c)
		}
	}
	build(tree.None, root)
	return b.Build()
}

// WeightedPathLength returns Σ W(d)·(Level(d)−1): the weighted number of
// index probes needed to reach each data node from the root. Divided by
// the total weight it is the average tuning-time proxy.
func WeightedPathLength(t *tree.Tree) float64 {
	var sum float64
	for _, d := range t.DataIDs() {
		sum += t.Weight(d) * float64(t.Level(d)-1)
	}
	return sum
}

// Huffman builds the classic Huffman tree over the items. The resulting
// tree minimizes WeightedPathLength but does not preserve key order, so
// the result is unkeyed (a Huffman broadcast index cannot answer key
// lookups by range descent — the flaw the paper points out in [CYW97]).
func Huffman(items []Item) (*tree.Tree, error) {
	if err := validate(items, false); err != nil {
		return nil, err
	}
	type hn struct {
		w float64
		s *shape
		n int // insertion order for deterministic ties
	}
	nodes := make([]hn, len(items))
	for i, it := range items {
		nodes[i] = hn{w: it.Weight, s: &shape{leaf: i}, n: i}
	}
	next := len(items)
	for len(nodes) > 1 {
		// Select the two smallest (weight, order) nodes.
		sort.SliceStable(nodes, func(i, j int) bool {
			if nodes[i].w != nodes[j].w {
				return nodes[i].w < nodes[j].w
			}
			return nodes[i].n < nodes[j].n
		})
		a, b := nodes[0], nodes[1]
		merged := hn{
			w: a.w + b.w,
			s: &shape{leaf: -1, children: []*shape{a.s, b.s}},
			n: next,
		}
		next++
		nodes = append([]hn{merged}, nodes[2:]...)
	}
	return toTree(items, nodes[0].s, false)
}

// HuTucker builds the optimal alphabetic binary search tree — the problem
// Hu & Tucker [HT71] solved — with the Garsia–Wachs algorithm: a
// combination phase that yields every item's optimal depth, then a stack
// reconstruction of the alphabetic tree with those depths. The result
// preserves key order, so it is keyed and usable as a broadcast search
// index. Its weighted path length equals OptimalAlphabetic's.
//
// The combination phase reads the items left to right onto a stack that
// keeps w[i] > w[i+2] for every i. A pushed node that breaks it (w[i] ≤
// w[i+2] at the top) merges w[i] and w[i+1]; the merged node then moves
// left past every lighter node, which shift right by one. A merge costs a
// binary search plus one copy of the nodes it passes, so the phase is
// O(n²) in the worst case but spends that time in memory moves.
func HuTucker(items []Item) (*tree.Tree, error) {
	if err := validate(items, true); err != nil {
		return nil, err
	}
	n := len(items)
	if n == 1 {
		return toTree(items, &shape{leaf: 0}, true)
	}

	levels := garsiaWachsLevels(items)

	// Stack reconstruction of the alphabetic tree from the levels.
	type se struct {
		s     *shape
		level int
	}
	var stack []se
	for i := 0; i < n; i++ {
		stack = append(stack, se{&shape{leaf: i}, levels[i]})
		for len(stack) >= 2 && stack[len(stack)-1].level == stack[len(stack)-2].level {
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, se{
				s:     &shape{leaf: -1, children: []*shape{a.s, b.s}},
				level: a.level - 1,
			})
		}
	}
	if len(stack) != 1 || stack[0].level != 0 {
		return nil, fmt.Errorf("alphatree: Hu-Tucker reconstruction failed (stack %d, level %d)",
			len(stack), stack[0].level)
	}
	return toTree(items, stack[0].s, true)
}

// garsiaWachsLevels runs the Garsia–Wachs combination phase and returns
// every item's depth in the combination tree, which is its depth in an
// optimal alphabetic tree. Nodes 0..n-1 are the items; merge m creates
// node n+m with children left[m] and right[m].
func garsiaWachsLevels(items []Item) []int {
	n := len(items)
	w := make([]float64, 2*n-1)
	left := make([]int, n-1)
	right := make([]int, n-1)
	for i, it := range items {
		w[i] = it.Weight
	}
	stack := make([]int, 0, n)
	m := 0
	// merge combines stack[k-1] and stack[k], moves the new node left
	// past every lighter node (they shift right by one) and returns its
	// position. Left of k-1 the stack keeps w[i] > w[i+2], so its even and
	// its odd positions each hold descending weights, and the node's new
	// place is found by a binary search on each.
	merge := func(k int) int {
		x := n + m
		left[m], right[m] = stack[k-1], stack[k]
		w[x] = w[stack[k-1]] + w[stack[k]]
		m++
		j := 0 // one past the rightmost node at least as heavy as x
		for parity := 0; parity < 2; parity++ {
			// Positions parity, parity+2, ... below k-1.
			count := (k - parity) / 2
			heavy := sort.Search(count, func(c int) bool { return w[stack[parity+2*c]] < w[x] })
			if heavy > 0 {
				j = max(j, parity+2*(heavy-1)+1)
			}
		}
		copy(stack[j+1:k], stack[j:k-1])
		stack[j] = x
		stack = append(stack[:k], stack[k+1:]...)
		return j
	}
	// settle restores w[i] > w[i+2] left of a node merge just placed at j.
	// Only the pair to its left can break it; mending that places another
	// node further left, which settles first. Nodes are tracked by their
	// distance from the top, which merges to their left leave unchanged.
	var pending []int
	settle := func(j int) {
		pending = append(pending[:0], len(stack)-j)
		for len(pending) > 0 {
			j := len(stack) - pending[len(pending)-1]
			if j >= 2 && w[stack[j-2]] <= w[stack[j]] {
				// merge shrinks the stack: read len(stack) after it returns.
				x := merge(j - 1)
				pending = append(pending, len(stack)-x)
				continue
			}
			pending = pending[:len(pending)-1]
		}
	}
	for i := 0; i < n; i++ {
		stack = append(stack, i)
		for top := len(stack); top >= 3 && w[stack[top-3]] <= w[stack[top-1]]; top = len(stack) {
			settle(merge(top - 2))
		}
	}
	// All read and the invariant holds: the right sentinel (+∞) makes the
	// last pair the leftmost mergeable one.
	for len(stack) > 1 {
		settle(merge(len(stack) - 1))
	}

	// Merged nodes are numbered after their children, so a reverse sweep
	// sets every parent's depth before its children's; the root is the
	// last merge.
	depth := make([]int, 2*n-1)
	for m := n - 2; m >= 0; m-- {
		d := depth[n+m] + 1
		depth[left[m]], depth[right[m]] = d, d
	}
	return depth[:n]
}

// OptimalAlphabetic builds the optimal alphabetic binary tree by the
// O(n³) interval dynamic program (the oracle HuTucker is tested against).
func OptimalAlphabetic(items []Item) (*tree.Tree, error) {
	return OptimalKAry(items, 2)
}

// OptimalKAry builds the optimal alphabetic tree with node fanout at most
// k by dynamic programming over item intervals: an interval either is a
// single leaf or splits into 2..k consecutive sub-intervals, paying the
// interval's total weight once per level. O(n³·k) time.
func OptimalKAry(items []Item, k int) (*tree.Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("alphatree: fanout %d, want >= 2", k)
	}
	if err := validate(items, true); err != nil {
		return nil, err
	}
	n := len(items)
	prefix := make([]float64, n+1)
	for i, it := range items {
		prefix[i+1] = prefix[i] + it.Weight
	}
	w := func(i, j int) float64 { return prefix[j+1] - prefix[i] }

	// cost[i][j]: optimal subtree cost for items i..j (leaf depths count
	// from this subtree's root). split[i][j]: last cut position of the
	// best partition, via parts[i][j][m] bookkeeping folded into a
	// two-level DP: best m-part partition cost over intervals.
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	// partCost[m][i][j]: cheapest way to cover i..j with exactly m
	// already-built subtrees standing side by side.
	partCost := make([][][]float64, k+1)
	partCut := make([][][]int, k+1)
	for m := 1; m <= k; m++ {
		partCost[m] = make([][]float64, n)
		partCut[m] = make([][]int, n)
		for i := range partCost[m] {
			partCost[m][i] = make([]float64, n)
			partCut[m][i] = make([]int, n)
			for j := range partCost[m][i] {
				partCost[m][i][j] = math.Inf(1)
				partCut[m][i][j] = -1
			}
		}
	}
	bestParts := make([][]int, n)
	for i := range bestParts {
		bestParts[i] = make([]int, n)
	}

	for length := 1; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			if i == j {
				cost[i][j] = 0
				partCost[1][i][j] = 0
				continue
			}
			// partCost[1] over strictly smaller intervals is final since
			// cost for them was computed in earlier lengths.
			best := math.Inf(1)
			bm := -1
			for m := 2; m <= k && m <= length; m++ {
				for cut := i + m - 2; cut < j; cut++ {
					left := partCost[m-1][i][cut]
					right := cost[cut+1][j] // single subtree on the right
					if c := left + right; c < partCost[m][i][j] {
						partCost[m][i][j] = c
						partCut[m][i][j] = cut
					}
				}
				if c := partCost[m][i][j]; c < best {
					best = c
					bm = m
				}
			}
			cost[i][j] = best + w(i, j)
			bestParts[i][j] = bm
			partCost[1][i][j] = cost[i][j]
		}
	}

	var build func(i, j int) *shape
	var parts func(i, j, m int) []*shape
	parts = func(i, j, m int) []*shape {
		if m == 1 {
			return []*shape{build(i, j)}
		}
		cut := partCut[m][i][j]
		return append(parts(i, cut, m-1), build(cut+1, j))
	}
	build = func(i, j int) *shape {
		if i == j {
			return &shape{leaf: i}
		}
		return &shape{leaf: -1, children: parts(i, j, bestParts[i][j])}
	}
	return toTree(items, build(0, n-1), true)
}

// KAry builds a weight-balanced alphabetic k-ary tree greedily: every
// node splits its item range into up to k contiguous groups of roughly
// equal total weight. A fast O(n log n)-ish heuristic counterpart to
// OptimalKAry for large catalogs, as used to fit index nodes to packets.
func KAry(items []Item, k int) (*tree.Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("alphatree: fanout %d, want >= 2", k)
	}
	if err := validate(items, true); err != nil {
		return nil, err
	}
	prefix := make([]float64, len(items)+1)
	for i, it := range items {
		prefix[i+1] = prefix[i] + it.Weight
	}
	var build func(i, j int) *shape
	build = func(i, j int) *shape {
		if i == j {
			return &shape{leaf: i}
		}
		count := j - i + 1
		groups := k
		if groups > count {
			groups = count
		}
		s := &shape{leaf: -1}
		start := i
		for g := 0; g < groups; g++ {
			remainingGroups := groups - g
			if remainingGroups == 1 {
				s.children = append(s.children, build(start, j))
				break
			}
			target := prefix[start] + (prefix[j+1]-prefix[start])/float64(remainingGroups)
			// Advance end to the split closest to the target weight while
			// leaving at least one item per remaining group.
			end := start
			for end < j-(remainingGroups-1) && prefix[end+1] < target {
				end++
			}
			s.children = append(s.children, build(start, end))
			start = end + 1
		}
		return s
	}
	return toTree(items, build(0, len(items)-1), true)
}
