// Package heuristic implements Section 4.2 of the paper: the two
// heuristics for large broadcast programs.
//
// Index Tree Sorting orders every node's children by the paper's ">"
// relation (A > B iff N_B·ΣW(A) ≥ N_A·ΣW(B), where N and ΣW are the
// subtree node count and data weight), broadcasts the sorted tree in
// preorder on one channel, and maps the preorder sequence onto k channels
// with the linear-time 1_To_k_BroadcastChannel procedure.
//
// Index Tree Shrinking reduces the tree until an optimal search is
// affordable — Node Combination folds index nodes whose children are all
// leaves into pseudo data nodes of summed weight; Tree Partitioning solves
// subtrees optimally and merges the sub-broadcasts in sorted order — and
// then restores the combined nodes in the optimal path.
package heuristic

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/pqueue"
	"repro/internal/tree"
)

// rank returns the sort key of the ">" relation: subtrees are ordered by
// descending ΣW/N, which is equivalent to the paper's pairwise condition
// N_B·ΣW(A) ≥ N_A·ΣW(B) for positive subtree sizes.
func rank(t *tree.Tree, id tree.ID) float64 {
	return t.SubtreeWeight(id) / float64(t.SubtreeSize(id))
}

// ranks precomputes every node's ">" key in one post-order pass, keeping
// the sorting heuristics O(N log m) as the paper claims rather than
// recomputing subtree aggregates per comparison.
func ranks(t *tree.Tree) []float64 {
	weight := make([]float64, t.NumNodes())
	size := make([]int, t.NumNodes())
	pre := t.Preorder()
	for i := len(pre) - 1; i >= 0; i-- {
		id := pre[i]
		w, n := 0.0, 1
		if t.IsData(id) {
			w = t.Weight(id)
		}
		for _, c := range t.Children(id) {
			w += weight[c]
			n += size[c]
		}
		weight[id] = w
		size[id] = n
	}
	out := make([]float64, t.NumNodes())
	for i := range out {
		out[i] = weight[i] / float64(size[i])
	}
	return out
}

// SortTree returns a copy of t with every index node's children reordered
// descending by the ">" relation. Ties keep the original order.
func SortTree(t *tree.Tree) (*tree.Tree, error) {
	b := tree.NewBuilder()
	key := ranks(t)
	var clone func(parent, src tree.ID)
	clone = func(parent, src tree.ID) {
		var nid tree.ID
		switch {
		case parent == tree.None && t.IsData(src):
			nid = b.AddRootData(t.Label(src), t.Weight(src))
		case parent == tree.None:
			nid = b.AddRoot(t.Label(src))
		case t.IsData(src):
			if k, ok := t.Key(src); ok {
				nid = b.AddKeyedData(parent, t.Label(src), k, t.Weight(src))
			} else {
				nid = b.AddData(parent, t.Label(src), t.Weight(src))
			}
		default:
			nid = b.AddIndex(parent, t.Label(src))
		}
		children := append([]tree.ID(nil), t.Children(src)...)
		sort.SliceStable(children, func(i, j int) bool {
			return key[children[i]] > key[children[j]]
		})
		for _, c := range children {
			clone(nid, c)
		}
	}
	clone(tree.None, t.Root())
	return b.Build()
}

// SortedPreorder returns t's node IDs in the preorder of the sorted tree:
// children are visited in descending ">" order without materializing a
// copy, so the result indexes the input tree directly.
func SortedPreorder(t *tree.Tree) []tree.ID {
	key := ranks(t)
	out := make([]tree.ID, 0, t.NumNodes())
	var walk func(id tree.ID)
	walk = func(id tree.ID) {
		out = append(out, id)
		children := append([]tree.ID(nil), t.Children(id)...)
		sort.SliceStable(children, func(i, j int) bool {
			return key[children[i]] > key[children[j]]
		})
		for _, c := range children {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

// SortingBroadcast runs the Index Tree Sorting heuristic for a single
// channel: the broadcast is the sorted preorder of t. The allocation is
// over the input tree.
func SortingBroadcast(t *tree.Tree) (*alloc.Allocation, error) {
	return alloc.FromSequence(t, SortedPreorder(t))
}

// AllocateSorted runs Index Tree Sorting followed by the paper's
// 1_To_k_BroadcastChannel procedure to spread the sorted tree over k
// channels: the nodes of each tree level share one slot (channels 1..k in
// preorder-sequence order), with overflow merged into the next level's
// list by sequence number, and the final list dumped k per slot.
//
// The paper's pseudocode does not address the corner where a merged
// parent and its child would land in the same slot; we defer such a child
// to the next slot, preserving feasibility without changing conflict-free
// inputs.
func AllocateSorted(t *tree.Tree, k int) (*alloc.Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("heuristic: %d channels", k)
	}
	// Sequence numbers are positions in the sorted preorder; level lists
	// hold each tree level's nodes in ascending sequence.
	order := SortedPreorder(t)
	seqOf := make([]int, t.NumNodes())
	for i, id := range order {
		seqOf[id] = i
	}
	lists := make([][]tree.ID, t.Depth()+2)
	for _, id := range order {
		l := t.Level(id)
		lists[l] = append(lists[l], id)
	}

	slotOf := make([]int, t.NumNodes())
	var levels [][]tree.ID
	emit := func(list []tree.ID) (slot []tree.ID, leftover []tree.ID) {
		cur := len(levels) + 1
		for _, id := range list {
			p := t.Parent(id)
			// Defer nodes whose parent is unplaced or in this very slot.
			if len(slot) < k && (p == tree.None || (slotOf[p] > 0 && slotOf[p] != cur)) {
				slot = append(slot, id)
				slotOf[id] = cur
				continue
			}
			leftover = append(leftover, id)
		}
		return slot, leftover
	}

	// Slot 1: the root alone (statement 4 of the procedure).
	levels = append(levels, []tree.ID{t.Root()})
	slotOf[t.Root()] = 1

	for level := 2; level <= t.Depth(); level++ {
		slot, leftover := emit(lists[level])
		if len(slot) > 0 {
			levels = append(levels, slot)
		}
		if len(leftover) > 0 {
			lists[level+1] = mergeBySeq(seqOf, lists[level+1], leftover)
		}
	}

	// DumpList: keep packing the residue k per slot until exhausted. Each
	// slot takes the first k residue nodes in sequence order whose parent
	// sits in an earlier slot. Those are the k smallest sequence numbers
	// among the ready nodes, so a min-heap of ready nodes replaces the
	// rescan of the whole residue. Every child of a residue node is in the
	// residue, so a node's children become ready once its slot closes.
	rest := lists[t.Depth()+1]
	ready := pqueue.New(func(a, b tree.ID) bool { return seqOf[a] < seqOf[b] })
	for _, id := range rest {
		if slotOf[t.Parent(id)] > 0 {
			ready.Push(id)
		}
	}
	for placed := 0; placed < len(rest); {
		if ready.Len() == 0 {
			return nil, fmt.Errorf("heuristic: 1_To_k could not place %d nodes", len(rest)-placed)
		}
		cur := len(levels) + 1
		slot := make([]tree.ID, 0, k)
		for len(slot) < k && ready.Len() > 0 {
			id := ready.Pop()
			slotOf[id] = cur
			slot = append(slot, id)
		}
		for _, id := range slot {
			for _, c := range t.Children(id) {
				ready.Push(c)
			}
		}
		levels = append(levels, slot)
		placed += len(slot)
	}
	return alloc.FromLevels(t, k, levels)
}

// mergeBySeq merges two sequence-ordered lists, preserving ascending
// sorted-preorder positions.
func mergeBySeq(seqOf []int, a, b []tree.ID) []tree.ID {
	out := make([]tree.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if seqOf[a[i]] <= seqOf[b[j]] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
