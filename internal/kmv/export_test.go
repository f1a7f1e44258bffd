package kmv

// Samples exposes the retained hashes (ascending) and their values to the
// reference-estimator oracle of the external test package.
func (s *Sketch) Samples() (hashes []uint64, vals []float64) { return s.hashes, s.vals }
