// Quickstart: a minimal TreadMarks program on the simulated SP/2.
//
// Eight processors share a vector; each fills its block, a barrier
// publishes the writes, and processor 0 sums the result. Run with:
//
//	go run ./examples/quickstart
//
// The printed statistics show the DSM at work: barrier messages
// (2(n-1) per barrier), diff requests from processor 0's read of the
// other blocks, and the diff replies that carry only the bytes that
// changed.
package main

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tmk"
)

func main() {
	const procs = 8
	const n = 1 << 16

	sys := tmk.NewSystem(procs, model.SP2())
	err := sys.Run(func(tm *tmk.Tmk) {
		// Every process allocates the same regions in the same order
		// (SPMD), like a Fortran common block.
		vec := tmk.Alloc[float64](tm, "vec", n)

		// Fill my block. Write validates elements [lo, lo+chunk) and
		// returns a view of exactly those: w[k] is element lo+k.
		chunk := n / tm.NProcs()
		lo := tm.ID() * chunk
		w := vec.Write(lo, lo+chunk)
		for k := range w {
			w[k] = float64(lo + k)
		}

		// Publish the writes (release consistency: the barrier carries
		// the write notices; data moves later, on demand).
		tm.Barrier()

		if tm.ID() == 0 {
			var sum float64
			for _, v := range vec.Read(0, n) { // faults in everyone else's blocks
				sum += v
			}
			fmt.Printf("sum(0..%d) = %.0f (expect %.0f)\n", n-1, sum, float64(n-1)*float64(n)/2)
			fmt.Printf("virtual time on proc 0: %v\n", tm.Now())
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("traffic: %s\n", sys.Stats().String())
}
