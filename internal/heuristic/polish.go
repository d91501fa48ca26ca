package heuristic

import (
	"repro/internal/alloc"
	"repro/internal/tree"
)

// Polish hill-climbs an allocation with the paper's exchange moves until
// a fixed point: whole adjacent compounds are swapped when no parent-child
// edge crosses them and the swap strictly lowers the weighted wait
// (Lemmas 1 and 2); single elements are pulled into earlier slots with
// free capacity (the left-compaction argument); and element pairs in
// adjacent slots are locally swapped when feasibility allows and the cost
// strictly drops (Lemma 4). The result is never worse than the input and
// empty slots are squeezed out.
//
// Polish turns any feasible allocation into a locally-exchange-optimal
// one, which makes it a cheap quality booster behind the Section 4.2
// heuristics on instances too large for exact search.
func Polish(a *alloc.Allocation) (*alloc.Allocation, bool, error) {
	t := a.Tree()
	k := a.Channels()
	levels := a.Levels()

	slotOf := make([]int, t.NumNodes())
	rebuildSlots := func() {
		for s, level := range levels {
			for _, id := range level {
				slotOf[id] = s + 1
			}
		}
	}
	rebuildSlots()

	// weight is the data weight of a slot (index nodes contribute zero).
	slotWeight := func(level []tree.ID) float64 {
		var w float64
		for _, id := range level {
			if t.IsData(id) {
				w += t.Weight(id)
			}
		}
		return w
	}
	// crossEdge reports a parent-child edge between two compounds.
	crossEdge := func(a, b []tree.ID) bool {
		for _, x := range a {
			for _, y := range b {
				if t.Parent(y) == x || t.Parent(x) == y {
					return true
				}
			}
		}
		return false
	}

	improvedAny := false
	for pass := 0; ; pass++ {
		improved := false

		// Move 1: pull any node into an earlier slot with free capacity.
		for s := 1; s < len(levels); s++ {
			if len(levels[s-1]) >= k {
				continue
			}
			for i := 0; i < len(levels[s]); i++ {
				id := levels[s][i]
				p := t.Parent(id)
				if p != tree.None && slotOf[p] >= s {
					continue
				}
				// Moving data earlier strictly improves; moving an index
				// node earlier is neutral in cost but can unlock later
				// moves, so only do it when it frees a whole slot.
				gain := t.IsData(id) && t.Weight(id) > 0
				freesSlot := len(levels[s]) == 1
				if !gain && !freesSlot {
					continue
				}
				levels[s-1] = append(levels[s-1], id)
				levels[s] = append(levels[s][:i], levels[s][i+1:]...)
				slotOf[id] = s
				improved = true
				i--
				if len(levels[s-1]) >= k {
					break
				}
			}
		}
		// Squeeze out emptied slots.
		out := levels[:0]
		for _, level := range levels {
			if len(level) > 0 {
				out = append(out, level)
			}
		}
		if len(out) != len(levels) {
			levels = out
			rebuildSlots()
			improved = true
		}

		// Move 2: swap whole adjacent compounds (global swap).
		for s := 1; s+1 < len(levels); s++ { // never move slot 1 (the root)
			a, b := levels[s], levels[s+1]
			if crossEdge(a, b) {
				continue
			}
			// Lemma 2: put the heavier compound first.
			if slotWeight(b) > slotWeight(a) {
				levels[s], levels[s+1] = b, a
				for _, id := range b {
					slotOf[id] = s + 1
				}
				for _, id := range a {
					slotOf[id] = s + 2
				}
				improved = true
			}
		}

		// Move 3: swap single elements across adjacent slots (local swap).
		for s := 0; s+1 < len(levels); s++ {
			for i := 0; i < len(levels[s]); i++ {
				x := levels[s][i]
				if x == t.Root() {
					continue
				}
				for j := 0; j < len(levels[s+1]); j++ {
					y := levels[s+1][j]
					// Feasibility (Lemma 4): y's parent strictly before
					// slot s+1's new home (s+1 → s), x's children after
					// slot s+2's new home, no direct edge x-y.
					if t.Parent(y) != tree.None && slotOf[t.Parent(y)] >= s+1 {
						continue
					}
					if t.Parent(y) == x || t.Parent(x) == y {
						continue
					}
					childBlocked := false
					for _, c := range t.Children(x) {
						if slotOf[c] <= s+2 {
							childBlocked = true
							break
						}
					}
					if childBlocked {
						continue
					}
					var wx, wy float64
					if t.IsData(x) {
						wx = t.Weight(x)
					}
					if t.IsData(y) {
						wy = t.Weight(y)
					}
					if wy <= wx {
						continue // no strict gain
					}
					levels[s][i], levels[s+1][j] = y, x
					slotOf[x], slotOf[y] = s+2, s+1
					improved = true
					x = levels[s][i]
				}
			}
		}

		if !improved {
			break
		}
		improvedAny = true
	}

	polished, err := alloc.FromLevels(t, k, levels)
	if err != nil {
		return nil, false, err
	}
	return polished, improvedAny, nil
}
