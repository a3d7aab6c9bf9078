package shallow

// ReferenceOutput is p, u and v after steps of the NCAR transcription
// from the package's init on an n×n grid, for the external test package.
func ReferenceOutput(n, steps int) (p, u, v []float32) {
	s := newLocalState(n)
	s.init(0, n)
	for range steps {
		s.ncarStep()
	}
	return s.p.data, s.u.data, s.v.data
}
