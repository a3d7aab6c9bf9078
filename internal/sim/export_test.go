package sim

import "math/rand/v2"

// TieBreakSeed makes every cluster New builds from now on break ties in
// pick uniformly at random among the processes of least effective
// time, drawn from seed, instead of by lowest id; reset restores the
// production order. Each cluster draws from its own generator, seeded
// alike, so a run's schedule does not depend on which other runs share
// the process.
func TieBreakSeed(seed uint64) (reset func()) {
	return tieBreaks(func() func(int) int { return rand.New(rand.NewPCG(seed, 0)).IntN })
}

// TieBreakChooser makes every cluster New builds from now on ask choose
// which process runs whenever several are tied at the least effective
// time: choose(n) gets the number of tied processes and returns an index
// in [0, n) into them, in id order. reset restores the production
// order. An exhaustive test drives choose through every choice
// sequence; clusters share it, so they must run one at a time.
func TieBreakChooser(choose func(n int) int) (reset func()) {
	return tieBreaks(func() func(int) int { return choose })
}

// tieBreaks installs, on every cluster New builds, a pick that runs the
// tied process the cluster's chooser (from newChooser) names first.
func tieBreaks(newChooser func() func(n int) int) (reset func()) {
	onNew = func(c *Cluster) {
		choose := newChooser()
		var order, tied []*Proc
		c.onPick = func() {
			least := Forever
			tied = tied[:0]
			for _, p := range c.procs {
				switch {
				case p.eff < least:
					least, tied = p.eff, append(tied[:0], p)
				case p.eff == least && least < Forever:
					tied = append(tied, p)
				}
			}
			c.order = c.procs
			if len(tied) < 2 {
				return
			}
			first := tied[choose(len(tied))]
			order = append(order[:0], first)
			for _, p := range c.procs {
				if p != first {
					order = append(order, p)
				}
			}
			c.order = order
		}
	}
	return func() { onNew = nil }
}
