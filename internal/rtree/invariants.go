package rtree

import "fmt"

// CheckInvariants validates the structural invariants of the tree's
// arena and returns the first violation found, or nil. It is exported
// for tests and diagnostic tooling; it does not charge node accesses.
//
// Checked invariants:
//  1. every node except the root holds between MinEntries and MaxEntries
//     entries; the root holds at most MaxEntries (and, unless it is a leaf,
//     at least 2);
//  2. each routing rectangle equals the exact MBR of its child's entries,
//     so every data point lies inside all its ancestors' rectangles;
//  3. all leaves sit at level 0 and node levels decrease by 1 per step;
//  4. the recorded size matches the number of data entries;
//  5. the recorded height matches the root's level + 1.
//
// The deferred verification of a borrowed arena (checksums and snapshot
// structure, see Packed.Prepare) runs first.
func (t *Tree) CheckInvariants() error { return t.arena.checkInvariants() }

// checkInvariants is CheckInvariants over the arena. Slot ranges and
// child ids are bounds-checked before use, so a corrupted arena fails
// with an error instead of a panic; the level check bounds the recursion.
func (p *Packed) checkInvariants() error {
	if err := p.Prepare(); err != nil {
		return err
	}
	t := p.src
	nodes := int32(len(p.level))
	if p.root < 0 || p.root >= nodes {
		return fmt.Errorf("rtree: root %d outside %d nodes", p.root, nodes)
	}
	if int(p.level[p.root])+1 != p.height {
		return fmt.Errorf("rtree: height %d but root level %d", p.height, p.level[p.root])
	}
	var check func(n int32, isRoot bool) (int, error)
	check = func(n int32, isRoot bool) (int, error) {
		s, e := p.start[n], p.end[n]
		slots := int32(len(p.child))
		if p.level[n] == 0 {
			slots = int32(len(p.ids))
		}
		if s < 0 || e < s || e > slots {
			return 0, fmt.Errorf("rtree: node %d slot range [%d,%d) outside %d slots", p.page[n], s, e, slots)
		}
		cnt := int(e - s)
		if cnt > t.cfg.MaxEntries {
			return 0, fmt.Errorf("rtree: node %d overflows with %d entries", p.page[n], cnt)
		}
		if isRoot {
			if p.level[n] > 0 && cnt < 2 {
				return 0, fmt.Errorf("rtree: internal root with %d entries", cnt)
			}
		} else if cnt < t.cfg.MinEntries {
			return 0, fmt.Errorf("rtree: node %d underflows with %d entries (min %d)",
				p.page[n], cnt, t.cfg.MinEntries)
		}
		if p.level[n] == 0 {
			return cnt, nil
		}
		count := 0
		for i := s; i < e; i++ {
			c := p.child[i]
			if c < 0 || c >= nodes {
				return 0, fmt.Errorf("rtree: node %d routes to node %d outside %d nodes", p.page[n], c, nodes)
			}
			if p.level[c] != p.level[n]-1 {
				return 0, fmt.Errorf("rtree: node %d at level %d has child at level %d",
					p.page[n], p.level[n], p.level[c])
			}
			sub, err := check(c, false)
			if err != nil {
				return 0, err
			}
			if sub == 0 {
				return 0, fmt.Errorf("rtree: empty child node %d", p.page[c])
			}
			for a := 0; a < p.dim; a++ {
				if lo, hi := p.nodeSpan(c, a); p.rlo[a][i] != lo || p.rhi[a][i] != hi {
					return 0, fmt.Errorf("rtree: routing rect [%v,%v] of node %d on axis %d != child MBR [%v,%v]",
						p.rlo[a][i], p.rhi[a][i], p.page[n], a, lo, hi)
				}
			}
			count += sub
		}
		return count, nil
	}
	count, err := check(p.root, true)
	if err != nil {
		return err
	}
	if count != p.size || count != len(p.ids) {
		return fmt.Errorf("rtree: size %d but %d data entries found (%d leaf slots)", p.size, count, len(p.ids))
	}
	return nil
}
