package gen

// Mutate is the mutation fuzzer's edit of a spec. It applies a byte-driven sequence of structured edits to a copy
// of ps and returns it. The result is a pure function of (ps, data) —
// mutation fuzzing stays reproducible from the corpus entry alone — and
// is NOT guaranteed valid: callers run Check and reject, so the fuzzer
// explores the envelope's boundary from both sides.
func Mutate(ps *ProgramSpec, data []byte) *ProgramSpec {
	m := ps.Clone()
	m.Name = ps.Name + "-mut"
	for k := 0; k+1 < len(data); k += 2 {
		op, arg := int(data[k]), int(data[k+1])
		mutateOne(m, op%12, arg)
	}
	return m
}

func mutateOne(m *ProgramSpec, op, arg int) {
	if len(m.Nests) == 0 {
		return
	}
	ns := m.Nests[arg%len(m.Nests)]
	switch op {
	case 0: // resize the grid
		m.N = []int{8, 16, 24, 32, 40, 64}[arg%6]
	case 1: // change the iteration count
		m.Iters = 1 + arg%4
	case 2: // drop a statement
		if len(ns.Stmts) > 1 {
			si := arg % len(ns.Stmts)
			ns.Stmts = append(ns.Stmts[:si:si], ns.Stmts[si+1:]...)
		}
	case 3: // duplicate a statement (reduce stmts would double-own a
		// scalar — Check rejects, exercising the oracle precondition)
		ns.Stmts = append(ns.Stmts, ns.Stmts[arg%len(ns.Stmts)])
	case 4: // toggle the parity guard
		if ns.Parity == nil {
			rem := arg % 2
			ns.Parity = &rem
		} else {
			ns.Parity = nil
		}
	case 5, 6: // nudge an access offset (row / col)
		var accs []*AccessSpec
		for si := range ns.Stmts {
			if lhs := ns.Stmts[si].LHS; lhs != nil {
				accs = append(accs, lhs)
			}
			ns.Stmts[si].RHS.walk(func(a *AccessSpec) { accs = append(accs, a) })
		}
		if len(accs) > 0 {
			a := accs[arg%len(accs)]
			d := 1
			if arg&1 == 1 {
				d = -1
			}
			if op == 5 {
				a.Row.Off += d
			} else {
				a.Col.Off += d
			}
		}
	case 7: // nudge a loop bound
		switch arg % 4 {
		case 0:
			ns.Row.Lo.Const++
		case 1:
			ns.Row.Hi.Const--
		case 2:
			ns.Col.Lo.Const++
		default:
			ns.Col.Hi.Const--
		}
	case 8: // swap an array initializer
		if len(m.Arrays) > 0 {
			names := initNames()
			m.Arrays[arg%len(m.Arrays)].Init = names[arg%len(names)]
		}
	case 9: // scale a literal by an exact factor
		lits := collectLits(ns)
		if len(lits) > 0 {
			*lits[arg%len(lits)] *= []float64{0.5, 2, -1, 0.25}[arg%4]
		}
	case 10: // flip a reduction operator
		for si := range ns.Stmts {
			if ss := &ns.Stmts[si]; ss.ReduceInto != "" {
				if ss.ReduceOp == "sum" {
					ss.ReduceOp = "max"
				} else {
					ss.ReduceOp = "sum"
				}
				break
			}
		}
	case 11: // drop a nest
		if len(m.Nests) > 1 {
			ni := arg % len(m.Nests)
			m.Nests = append(m.Nests[:ni:ni], m.Nests[ni+1:]...)
		}
	}
}

func collectLits(ns *NestSpec) []*float64 {
	var lits []*float64
	for si := range ns.Stmts {
		ns.Stmts[si].RHS.walkLits(func(v *float64) { lits = append(lits, v) })
	}
	return lits
}

// walkLits visits every literal in the expression.
func (e *ExprSpec) walkLits(f func(*float64)) {
	if e == nil {
		return
	}
	if e.Lit != nil {
		f(e.Lit)
	}
	e.L.walkLits(f)
	e.R.walkLits(f)
}
