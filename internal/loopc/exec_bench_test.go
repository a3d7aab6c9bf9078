package loopc

import "testing"

// BenchmarkInterpreter times the closure interpreter on the
// Jacobi-shaped program: ns per executed point, whatever backs the
// arrays.
func BenchmarkInterpreter(b *testing.B) {
	const n = 256
	p := stencilIR()
	for i := 0; i < b.N; i++ {
		Reference(p, n, 1)
	}
	points := 2 * (n - 2) * (n - 2)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(points)), "ns/point")
}
