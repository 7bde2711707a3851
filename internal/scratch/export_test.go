package scratch

// Zeroed reports how many visited-set words the arena's Gets and Visited2s
// have zeroed since it was made: the reset cost the tests pin.
func (s *T) Zeroed() int { return s.zeroed }

// RaceEnabled is raceEnabled for the external test package.
const RaceEnabled = raceEnabled
