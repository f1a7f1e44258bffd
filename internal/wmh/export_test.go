package wmh

// Samples exposes the stored per-sample hashes and values to the
// reference-estimator oracle of the external test package.
func (s *Sketch) Samples() (hashes, vals []float64) { return s.hashes, s.vals }
