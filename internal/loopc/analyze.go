package loopc

// nestClass is the analyzer's verdict on a nest's row loop — the loop the
// backends distribute.
type nestClass int

const (
	// classDOALL: no row-carried dependence; iterations may run in parallel.
	classDOALL nestClass = iota
	// classReduction: DOALL except for recognized scalar reductions, which
	// the backends lower to combining trees.
	classReduction
	// classSerial: a row-carried or unanalyzable dependence; the nest runs
	// sequentially (master-only on the DSM, replicated under message
	// passing).
	classSerial
)

func (c nestClass) String() string {
	switch c {
	case classDOALL:
		return "DOALL"
	case classReduction:
		return "reduction"
	}
	return "serial"
}

// dep is one dependence the analyzer tested: a write paired with
// another access to the same array inside one nest. dist is the
// distance vector (row, col) when both accesses are analyzable;
// analyzable is false otherwise (mismatched or constant index vars).
// refuted dependences are disproved by the nest's parity guard: the
// write and the access touch elements of different (row+col) parity.
type dep struct {
	Array      string
	dist       [2]int
	analyzable bool
	refuted    bool
}

// carried reports whether the dependence constrains row parallelism:
// unanalyzable, or a nonzero row distance, unless parity-refuted.
func (d dep) carried() bool {
	if d.refuted {
		return false
	}
	return !d.analyzable || d.dist[0] != 0
}

// arrayUse summarizes how a nest touches one array.
type arrayUse struct {
	read, written        bool
	minRowOff, maxRowOff int // over row-var-matched reads
	// nonRowRead marks a read whose row index is not the row loop var
	// (a constant row, or the column var). Legal in a parallel nest
	// only for never-written arrays, but the rows it touches are
	// unrelated to the executing slice, so the whole array must be
	// validated on the DSM.
	nonRowRead bool
}

// nestInfo is the analysis result for one nest.
type nestInfo struct {
	Nest    *Nest
	class   nestClass
	deps    []dep
	uses    map[string]*arrayUse
	reduces []*Stmt // the nest's reduction statements
}

// mod2 is the nonnegative remainder of x by 2.
func mod2(x int) int { return ((x % 2) + 2) % 2 }

// analyzeNest classifies one nest. writtenAnywhere marks arrays any
// nest of the program writes (reads of those through unanalyzable row
// indexes cannot be satisfied from a replicated copy, so they serialize
// the nest).
func analyzeNest(nst *Nest, writtenAnywhere map[string]bool) *nestInfo {
	info := &nestInfo{Nest: nst, uses: map[string]*arrayUse{}}
	use := func(name string) *arrayUse {
		u := info.uses[name]
		if u == nil {
			u = &arrayUse{}
			info.uses[name] = u
		}
		return u
	}

	// Collect the nest's writes and reads.
	type acc struct {
		a     Access
		write bool
	}
	var accs []acc
	for _, s := range nst.Stmts {
		if s.ReduceInto != "" {
			info.reduces = append(info.reduces, s)
		} else {
			accs = append(accs, acc{s.LHS, true})
			u := use(s.LHS.Array)
			u.written = true
			// Owner-computes needs the written row to be the iteration's
			// own row.
			if s.LHS.Row.Var != nst.Row.Var || s.LHS.Row.Off != 0 {
				info.class = classSerial
			}
		}
		s.RHS.walk(func(a Access) {
			accs = append(accs, acc{a, false})
			u := use(a.Array)
			if a.Row.Var == nst.Row.Var {
				if !u.read || a.Row.Off < u.minRowOff {
					u.minRowOff = a.Row.Off
				}
				if !u.read || a.Row.Off > u.maxRowOff {
					u.maxRowOff = a.Row.Off
				}
			} else {
				u.nonRowRead = true
				if writtenAnywhere[a.Array] {
					// A replicated/owner copy cannot serve this read.
					info.class = classSerial
				}
			}
			u.read = true
		})
	}

	// Pairwise dependence test: every write against every access of the
	// same array (both orders are covered because the pair is symmetric
	// for DOALL purposes — any row-carried dependence disqualifies).
	analyzable := func(a Access) bool {
		return a.Row.Var == nst.Row.Var && a.Col.Var == nst.Col.Var
	}
	for _, w := range accs {
		if !w.write {
			continue
		}
		for _, a := range accs {
			if a.a.Array != w.a.Array || (a.write && a.a == w.a) {
				continue
			}
			d := dep{Array: w.a.Array}
			if analyzable(w.a) && analyzable(a.a) {
				d.analyzable = true
				d.dist = [2]int{w.a.Row.Off - a.a.Row.Off, w.a.Col.Off - a.a.Col.Off}
				if nst.Guard != nil {
					// Under the guard, iteration parity (row+col) is fixed,
					// so the element parities the two accesses touch are
					// fixed too; different parities never alias.
					pw := mod2(nst.Guard.Rem + w.a.Row.Off + w.a.Col.Off)
					pa := mod2(nst.Guard.Rem + a.a.Row.Off + a.a.Col.Off)
					d.refuted = pw != pa
				}
			}
			info.deps = append(info.deps, d)
			if d.carried() {
				info.class = classSerial
			}
		}
	}

	if info.class != classSerial && len(info.reduces) > 0 {
		info.class = classReduction
	}
	return info
}

// analyze validates a program and classifies every nest.
func analyze(p *Program) ([]*nestInfo, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	written := map[string]bool{}
	for _, nst := range p.Nests {
		for _, s := range nst.Stmts {
			if s.ReduceInto == "" {
				written[s.LHS.Array] = true
			}
		}
	}
	infos := make([]*nestInfo, len(p.Nests))
	for i, nst := range p.Nests {
		infos[i] = analyzeNest(nst, written)
	}
	return infos, nil
}
