package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loopc/gen"
	"repro/internal/model"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tmk"
)

// scheduleBudget is the most schedules one program's tree may hold. A
// tree that would exceed it fails the test rather than being cut short:
// a schedule left out is a schedule not checked.
const scheduleBudget = 4000

// explore runs program once for every sequence of tie-break choices,
// depth first, and returns how many schedules there were. At every pick
// with n tied processes the chooser takes each of the n in turn; a
// replayed prefix must meet the same widths, or the simulator is not
// deterministic. check sees each schedule's outcome.
func explore(t *testing.T, name string, program func() (float64, error), check func(sum float64) error) int {
	t.Helper()
	var prefix, widths []int
	var pos int
	var replay error
	choose := func(n int) int {
		if pos < len(prefix) {
			if widths[pos] != n && replay == nil {
				replay = fmt.Errorf("choice %d has %d tied processes on replay, %d before: the simulator is not deterministic", pos, n, widths[pos])
			}
			pos++
			return min(prefix[pos-1], n-1)
		}
		prefix, widths = append(prefix, 0), append(widths, n)
		pos++
		return 0
	}
	for schedules := 1; ; schedules++ {
		pos, replay = 0, nil
		sum, err := runChoosing(choose, program)
		if err == nil {
			err = replay
		}
		if err == nil {
			err = check(sum)
		}
		if err != nil {
			t.Fatalf("%s: schedule %v: %v", name, prefix, err)
		}
		// Advance to the next sequence: drop exhausted trailing choices,
		// take the next sibling of the last open one.
		for len(prefix) > 0 && prefix[len(prefix)-1]+1 == widths[len(widths)-1] {
			prefix, widths = prefix[:len(prefix)-1], widths[:len(widths)-1]
		}
		if len(prefix) == 0 {
			return schedules
		}
		if schedules == scheduleBudget {
			t.Fatalf("%s: more than %d schedules; the tree is over budget", name, scheduleBudget)
		}
		prefix[len(prefix)-1]++
	}
}

// runChoosing runs program with ties broken by choose. A panicking run
// (a protocol invariant firing) is a failed schedule.
func runChoosing(choose func(int) int, program func() (float64, error)) (sum float64, err error) {
	reset := sim.TieBreakChooser(choose)
	defer reset()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return program()
}

// TestExhaustiveSchedules runs small programs under every order in
// which the simulator could run processes tied at the least effective
// time, and holds every schedule to the program's answer: generated
// loopc programs (at most four pages each) against their oracle
// checksum, and a lock-protected counter against its exact total.
// spf-gen lowers a scalar reduction through a lock taken on every
// combine, so generated programs reach the lock paths as well: the test
// logs each one's lock messages in the production schedule and fails
// if none sends any. The
// production order (lowest id first) is one of these schedules; a
// result that depends on a tie is a race the runtimes could lose on a
// real cluster.
func TestExhaustiveSchedules(t *testing.T) {
	type program struct {
		seed  int64
		v     core.Version
		procs int
	}
	programs := []program{
		{1, core.SPFGen, 2}, {2, core.SPFGen, 2}, {3, core.SPFGen, 2}, {4, core.SPFGen, 2},
		{1, core.XHPFGen, 3}, {5, core.XHPFGen, 3}, {8, core.XHPFGen, 3},
	}
	if !testing.Short() {
		programs = append(programs, program{1, core.SPFGen, 3})
	}
	start := time.Now()
	genLocks := int64(0)
	for _, pr := range programs {
		a := gen.AppForSeed(pr.seed)
		cfg := a.Config(core.SmallScale, pr.procs)
		cfg.Costs, cfg.App = model.SP2(), model.DefaultAppCosts()
		want, err := a.ExpectedChecksum(pr.v, pr.procs)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s %s procs=%d", a.Name(), pr.v, pr.procs)
		locks := int64(-1) // of the first schedule, the production order
		n := explore(t, name, func() (float64, error) {
			r, err := a.Run(pr.v, cfg)
			if locks < 0 {
				locks = r.Stats.Msgs[stats.KindLock]
			}
			return r.Checksum, err
		}, func(sum float64) error {
			if sum != want {
				return fmt.Errorf("checksum %v, oracle %v", sum, want)
			}
			return nil
		})
		t.Logf("%s: %d schedules, %d lock messages", name, n, locks)
		genLocks += locks
	}
	if genLocks == 0 {
		t.Error("no generated program sends a lock message: only the hand-written counter reaches the lock paths")
	}
	for _, procs := range []int{2, 3} {
		for _, p := range proto.Names() {
			name := fmt.Sprintf("lock counter procs=%d protocol=%s", procs, p)
			want := float64(lockRounds * procs * (procs + 1) / 2)
			n := explore(t, name, func() (float64, error) { return lockCounter(procs, p) }, func(sum float64) error {
				if sum != want {
					return fmt.Errorf("counter %v, want %v", sum, want)
				}
				return nil
			})
			t.Logf("%s: %d schedules", name, n)
		}
	}
	t.Logf("all trees in %v", time.Since(start).Round(time.Millisecond))
}

// lockRounds is how often each node adds to the lock counter.
const lockRounds = 2

// lockCounter is the hand-written lock program: every node adds its id
// plus one to a shared counter lockRounds times under one lock, all
// nodes starting at the same virtual time so that their requests tie,
// and node 0 reads the total after a barrier.
func lockCounter(procs int, p proto.Name) (float64, error) {
	sys := tmk.NewSystem(procs, model.SP2(), tmk.WithProtocol(p))
	var total int64
	err := sys.Run(func(tm *tmk.Tmk) {
		counter := tmk.Alloc[int64](tm, "counter", 1)
		for range lockRounds {
			tm.AcquireLock(0)
			counter.Write(0, 1)[0] += int64(tm.ID() + 1)
			tm.ReleaseLock(0)
		}
		tm.Barrier()
		if tm.ID() == 0 {
			total = counter.Read(0, 1)[0]
		}
	})
	return float64(total), err
}
