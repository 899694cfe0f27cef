package collective

// CompactSchedule is a forwarding shim over Schedule.Classes that exists only
// for perfbench, which spells the fingerprint s.Compact().Classes() + Release.
// ROADMAP item 1(4) moves perfbench onto a root surface and deletes this file.
type CompactSchedule struct{ s *Schedule }

// Compact wraps s for the perfbench shim.
func (s *Schedule) Compact() *CompactSchedule { return &CompactSchedule{s} }

// Classes is Schedule.Classes.
func (c *CompactSchedule) Classes() *ClassSchedule { return c.s.Classes() }

// Release does nothing; the shim holds no pooled memory.
func (c *CompactSchedule) Release() {}
