package loopc

// XHPFReplicates reports whether RunXHPF keeps some array of p whole on
// every processor at size n: one a serial nest uses, or one a parallel
// nest reads through a non-row index. The other arrays are stored as a
// block and halo.
func XHPFReplicates(p *Program, n int) (bool, error) {
	steps, err := planSteps(p)
	if err != nil {
		return false, err
	}
	for _, h := range xhpfHalos(p, steps, n) {
		if h >= n {
			return true, nil
		}
	}
	return false, nil
}
