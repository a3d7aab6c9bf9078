package nbf

import "repro/internal/core"

// The checks and seq's coordinates, for the tests.
var CoordSum, WSum = coordSum, wsum

// SeqCoords returns the coordinates seq's kernels leave after a run of
// cfg: the output whose checksum and wsum seq reports.
func SeqCoords(cfg core.Config) (x, y, z []float32) {
	x, y, z = make([]float32, cfg.N1), make([]float32, cfg.N1), make([]float32, cfg.N1)
	f := make([]float32, cfg.N1)
	initCoords(x, y, z)
	lists := buildPartners(cfg.N1, cfg.N2, cfg.N3)
	for iter := 0; iter < cfg.Warmup+cfg.Iters; iter++ {
		clear(f)
		forceBlock(f, x, y, z, lists, 0, cfg.N1)
		moveBlock(x, y, z, f)
	}
	return x, y, z
}
