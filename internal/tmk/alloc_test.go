package tmk

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/proto"
)

// roundsProgram runs rounds of one step per node: with fault set, every
// node writes one word of its own page, all meet at a barrier, and
// every node reads its right neighbour's page, a read fault that one
// writer serves; without it, the round is the barrier alone.
func roundsProgram(rounds int, fault bool) func(tm *Tmk) {
	return func(tm *Tmk) {
		r := Alloc[float64](tm, "x", tm.NProcs()*model.PageSize/8)
		epp := r.ElemsPerPage()
		own, next := tm.ID()*epp, (tm.ID()+1)%tm.NProcs()*epp
		for k := 0; k < rounds; k++ {
			if fault {
				r.Write(own, own+1)[0] = float64(k + 1)
			}
			tm.Barrier()
			if fault && r.Read(next, next+1)[0] != float64(k+1) {
				panic(fmt.Sprintf("round %d: neighbour's write not seen", k))
			}
		}
	}
}

// objectsPerRound is the heap objects one node allocates per round of
// roundsProgram on a 4-node system: a long run's count minus a short
// one's, so the set-up (regions, tables, processes) cancels out.
func objectsPerRound(t testing.TB, p proto.Name, fault bool) float64 {
	const nprocs = 4
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := NewSystem(nprocs, model.SP2(), WithProtocol(p)).Run(roundsProgram(rounds, fault)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 40, 200
	return (allocs(long) - allocs(short)) / float64((long-short)*nprocs)
}

// TestSteadyStateProtocolAllocations holds what a node allocates per
// barrier, and per round of one write, one barrier, one read fault and
// one diff or page request served, to what outlives them (DESIGN.md
// "What a message costs the host", rule 6): the interval log's record,
// the writer's diff record and its payload, the messages that carry
// data. Per-request scratch, or a barrier message made anew, would add
// objects per round.
func TestSteadyStateProtocolAllocations(t *testing.T) {
	for _, tc := range []struct {
		p     proto.Name
		fault bool
		max   float64
	}{
		// A barrier: nothing. Each worker refills its arrival, and the
		// manager its departures and their batches, once read.
		{proto.HomelessLRC, false, 0.05},
		{proto.HomeLRC, false, 0.05},
		// Beside the interval log's record: under lrc the writer's diff
		// record, its payload (the delta and its values, the run table
		// inline) and its chain's growth; under hlrc the box of the
		// page reply's buffer, which goes round.
		{proto.HomelessLRC, true, 4.5},
		{proto.HomeLRC, true, 2.1},
	} {
		got := objectsPerRound(t, tc.p, tc.fault)
		t.Logf("%s fault=%v: %.2f objects per node and round", tc.p, tc.fault, got)
		if got > tc.max {
			t.Errorf("%s fault=%v: %.2f objects per node and round, want <= %.2f", tc.p, tc.fault, got, tc.max)
		}
	}
}

// BenchmarkFaultRepair runs b.N rounds of roundsProgram on 4 nodes: one
// op is a round, in which every node writes its page, meets the others
// at a barrier, and repairs a read fault on its neighbour's page.
func BenchmarkFaultRepair(b *testing.B) {
	for _, p := range proto.Names() {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			if err := NewSystem(4, model.SP2(), WithProtocol(p)).Run(roundsProgram(b.N, true)); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkBarrier8 runs b.N barriers on 8 nodes that write nothing.
func BenchmarkBarrier8(b *testing.B) {
	b.ReportAllocs()
	if err := NewSystem(8, model.SP2()).Run(roundsProgram(b.N, false)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExtract encodes one page's diff against its twin per op, the
// twin kept and refreshed, for float32 pages (the applications' grids)
// and float64 pages: an unchanged page, one word changed, every
// (epp/16)th word (16 runs, past the inline run table) and every word.
// B/op and allocs/op are a diff's.
func BenchmarkExtract(b *testing.B) {
	b.Run("float32", benchExtract[float32])
	b.Run("float64", benchExtract[float64])
}

func benchExtract[T Elem](b *testing.B) {
	epp := model.PageSize / sizeOfElem[T]()
	for _, bc := range []struct {
		name   string
		stride int
	}{{"empty", 0}, {"sparse", epp}, {"strided", epp / 16}, {"dense", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			r := Alloc[T](storageTmk(), "page", epp)
			page := r.Write(0, r.Len())
			r.makeTwin(0)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				v := elemOf[T](k)
				for i := 0; bc.stride > 0 && i < len(page); i += bc.stride {
					page[i] = v
				}
				if _, bytes := r.extract(0, true); bytes < proto.DiffRecHdr {
					b.Fatalf("diff of %d bytes", bytes)
				}
			}
		})
	}
}
