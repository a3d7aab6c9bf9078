package mgs

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/apps/kerneltest"
)

// dot64Ref, normalizeRowRef and orthoRowRef are the straightforward
// loops the bounds-check-free ones must match bit for bit.
func dot64Ref(a, b []float32) float64 {
	var s float64
	for k := range a {
		s += float64(a[k]) * float64(b[k])
	}
	return s
}

func normalizeRowRef(row []float32) {
	inv := float32(1 / math.Sqrt(dot64Ref(row, row)))
	for k := range row {
		row[k] *= inv
	}
}

func orthoRowRef(row, unit []float32) {
	r := float32(dot64Ref(unit, row))
	for k := range row {
		row[k] -= r * unit[k]
	}
}

func TestRowKernelsBitwise(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 64, 65, 1024} {
		what := fmt.Sprintf("n=%d", n)
		unit, row := kerneltest.Noise(uint32(n), n), kerneltest.Noise(uint32(n)+1, n)
		if got, want := dot64(unit, row), dot64Ref(unit, row); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: dot64 = %x, want %x", what, math.Float64bits(got), math.Float64bits(want))
		}
		got, want := slices.Clone(unit), slices.Clone(unit)
		normalizeRow(got)
		normalizeRowRef(want)
		kerneltest.SameBits(t, what+" normalizeRow", got, want)
		unit = want
		got, want = slices.Clone(row), slices.Clone(row)
		orthoRow(got, unit)
		orthoRowRef(want, unit)
		kerneltest.SameBits(t, what+" orthoRow", got, want)
	}
}

func BenchmarkOrthoRow(b *testing.B) {
	const n = 1024
	unit, row := kerneltest.Noise(1, n), kerneltest.Noise(2, n)
	normalizeRow(unit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orthoRow(row, unit)
	}
	kerneltest.ReportPer(b, "point", n)
}
