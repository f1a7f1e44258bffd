package psample

// Samples exposes the stored sample keys, values and priority threshold
// to the reference-estimator oracle of the external test package.
func (s *Sketch) Samples() (idx []uint64, vals []float64, tau float64) {
	return s.idx, s.vals, s.tau
}
