package sim

import "math/rand/v2"

// TieBreakSeed makes every cluster New builds from now on break ties in
// pick uniformly at random among the processes of least effective
// time, drawn from seed, instead of by lowest id; reset restores the
// production order. Each cluster draws from its own generator, seeded
// alike, so a run's schedule does not depend on which other runs share
// the process.
func TieBreakSeed(seed uint64) (reset func()) {
	onNew = func(c *Cluster) {
		rng := rand.New(rand.NewPCG(seed, 0))
		order := append([]*Proc(nil), c.procs...)
		c.order = order
		c.onPick = func() {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
	}
	return func() { onNew = nil }
}
