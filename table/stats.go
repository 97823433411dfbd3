package table

// Observability: a point-in-time Stats snapshot for any table, assembled
// from the schemes' existing diagnostics (displacements, chain lengths,
// tombstone and rehash counters) through optional interfaces, so the hot
// paths carry no extra bookkeeping. Collecting a snapshot walks the table
// once (O(capacity)); it is meant for dashboards and debugging, not for
// per-operation use.

// Stats is a snapshot of one table's health and cost drivers.
type Stats struct {
	// Scheme and Function identify the table, e.g. "RH" + "Mult".
	Scheme   string `json:"scheme"`
	Function string `json:"function,omitempty"`
	// Partitions is the number of stripes behind a partitioned Handle
	// (1 for a plain table).
	Partitions int `json:"partitions"`

	Len         int     `json:"len"`
	Capacity    int     `json:"capacity"`
	LoadFactor  float64 `json:"load_factor"`
	MemoryBytes uint64  `json:"memory_bytes"`

	// Tombstones counts deleted-slot markers still occupying slots
	// (LP, LPSoA and QP only).
	Tombstones int `json:"tombstones,omitempty"`
	// Rehashes counts rehash events so far: growth doublings, in-place
	// tombstone purges, and (for Cuckoo) function redraws.
	Rehashes int `json:"rehashes,omitempty"`
	// Kicks is Cuckoo's total displacement steps across all inserts, the
	// cost driver behind its slow writes (§5.2).
	Kicks uint64 `json:"kicks,omitempty"`

	// MeanProbe and MaxProbe describe the expected probe count of a
	// successful lookup: displacement+1 for the probing schemes, the mean
	// position within a chain for chained hashing, and for Cuckoo the
	// number of subtables probed up to and including the one that holds
	// the entry (way j costs j+1), measured from the per-way occupancy.
	MeanProbe float64 `json:"mean_probe"`
	MaxProbe  int     `json:"max_probe"`
	// TotalDisplacement is the paper's aggregate displacement measure for
	// the probing schemes (zero for chained and Cuckoo).
	TotalDisplacement uint64 `json:"total_displacement,omitempty"`
}

// Optional diagnostics interfaces the schemes already implement.
type (
	tombstoner    interface{ Tombstones() int }
	rehasher      interface{ Rehashes() int }
	kicker        interface{ TotalKicks() uint64 }
	displacer     interface{ Displacements() []int }
	chainMeasurer interface{ ChainLengths() []int }
	hashNamer     interface{ HashName() string }
	wayMeasurer   interface{ WayOccupancy() []int }
)

// StatsOf collects a Stats snapshot from any Table. The load factor is
// Len/Capacity; for chained tables it may exceed 1 (§4.5).
func StatsOf(m Table) Stats {
	s := Stats{
		Scheme:      m.Name(),
		Partitions:  1,
		Len:         m.Len(),
		Capacity:    m.Capacity(),
		LoadFactor:  float64(m.Len()) / float64(m.Capacity()),
		MemoryBytes: m.MemoryFootprint(),
	}
	if hn, ok := m.(hashNamer); ok {
		s.Function = hn.HashName()
	}
	if tb, ok := m.(tombstoner); ok {
		s.Tombstones = tb.Tombstones()
	}
	if rh, ok := m.(rehasher); ok {
		s.Rehashes = rh.Rehashes()
	}
	if kk, ok := m.(kicker); ok {
		s.Kicks = kk.TotalKicks()
	}
	switch t := m.(type) {
	case displacer:
		for _, d := range t.Displacements() {
			s.TotalDisplacement += uint64(d)
			if d+1 > s.MaxProbe {
				s.MaxProbe = d + 1
			}
		}
		if n := m.Len(); n > 0 {
			s.MeanProbe = 1 + float64(s.TotalDisplacement)/float64(n)
		}
	case chainMeasurer:
		// A lookup of the i-th entry of a chain costs i probes; averaging
		// over all entries gives sum(l*(l+1)/2) / n.
		var probeSum uint64
		var n int
		for _, l := range t.ChainLengths() {
			probeSum += uint64(l) * uint64(l+1) / 2
			n += l
			if l > s.MaxProbe {
				s.MaxProbe = l
			}
		}
		if n > 0 {
			s.MeanProbe = float64(probeSum) / float64(n)
		}
	case wayMeasurer:
		// Cuckoo: a lookup probes the subtables in order, so an entry in
		// way j costs j+1 probes. Placement is not uniform — an insert
		// takes the first free candidate, so the early ways fill first.
		var probeSum, n int
		for j, nj := range t.WayOccupancy() {
			if nj > 0 {
				probeSum += (j + 1) * nj
				n += nj
				s.MaxProbe = j + 1
			}
		}
		if n > 0 {
			s.MeanProbe = float64(probeSum) / float64(n)
		}
	}
	return s
}

// merge folds another stripe's snapshot into s (used by Handle.Stats for
// partitioned handles): sizes and counters add, probe measures combine
// weighted by entry count.
func (s *Stats) merge(o Stats) {
	weighted := s.MeanProbe*float64(s.Len) + o.MeanProbe*float64(o.Len)
	s.Partitions += o.Partitions
	s.Len += o.Len
	s.Capacity += o.Capacity
	s.MemoryBytes += o.MemoryBytes
	s.Tombstones += o.Tombstones
	s.Rehashes += o.Rehashes
	s.Kicks += o.Kicks
	s.TotalDisplacement += o.TotalDisplacement
	if o.MaxProbe > s.MaxProbe {
		s.MaxProbe = o.MaxProbe
	}
	if s.Len > 0 {
		s.MeanProbe = weighted / float64(s.Len)
	}
	if s.Capacity > 0 {
		s.LoadFactor = float64(s.Len) / float64(s.Capacity)
	}
}
