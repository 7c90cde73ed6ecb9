package rtree

// treeStats summarises the tree shape.
type treeStats struct {
	Size       int
	Height     int
	Nodes      int
	Leaves     int
	AvgFill    float64 // mean entries per node / MaxEntries
	LeafArea   float64 // total area of leaf MBRs (overlap indicator)
	MaxEntries int
}

// computeStats walks the arena (without charging accesses) and returns
// its shape statistics.
func computeStats(p *Packed) treeStats {
	s := treeStats{Size: p.size, Height: p.height, Nodes: len(p.level), MaxEntries: p.src.cfg.MaxEntries}
	var fillSum float64
	for n := range p.level {
		cnt := p.end[n] - p.start[n]
		fillSum += float64(cnt)
		if p.level[n] != 0 {
			continue
		}
		s.Leaves++
		if cnt > 0 {
			area := 1.0
			for a := 0; a < p.dim; a++ {
				lo, hi := p.nodeSpan(int32(n), a)
				area *= hi - lo
			}
			s.LeafArea += area
		}
	}
	if s.Nodes > 0 {
		s.AvgFill = fillSum / float64(s.Nodes) / float64(s.MaxEntries)
	}
	return s
}
