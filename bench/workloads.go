package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/loopc/gen"
	"repro/internal/proto"
	"repro/internal/store"
)

// A workload is one closed-loop load on the stack. setup builds the
// inputs from the seed (and whatever the output checks compare
// against); rep does one unit of timed work on a cold engine, exactly
// what one CLI invocation pays; check runs outside the timed window.
type workload struct {
	name string
	why  string
	// virt names the virtual-drift reference under testdata/ (workloads
	// that run the same spec list share one file).
	virt string
	// setup with smoke set cuts the inputs to a 2-spec rep, for the test.
	setup func(seed int64, smoke bool) (*state, error)
	rep   func(st *state, tr *tracer) (repOut, error)
	check func(st *state, out repOut) (attempted, failed int)
}

// state is what set-up hands to the reps.
type state struct {
	specs []exp.Spec
	base  baselines
	// want is the byte stream a rep must reproduce: the cold stream
	// for store-serve, the local stream for fabric-loop2.
	want   []byte
	dir    string // store directory (store-serve) or parent of per-rep dirs (store-write)
	corpus []kv   // store-write
	passes int    // store-serve
}

type kv struct {
	key string
	val []byte
}

func (st *state) close() {
	if st != nil && st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// repOut is what one rep produced, for the checks and the layer counts.
type repOut struct {
	stream   []byte // JSON-lines records (the last pass's, for store-serve)
	ops      int    // operations attempted inside the rep
	opsBad   int    // operations that failed inside the rep
	dir      string // store-write: the directory just written, for the read-back check
	exp      exp.HostStats
	store    store.Stats
	storeLen int64
	fabric   fabric.FleetSnapshot
}

func (o *repOut) addEngine(e *exp.Engine) {
	h := e.HostStats()
	o.exp.RunsStarted += h.RunsStarted
	o.exp.CacheHits += h.CacheHits
	o.exp.StoreHits += h.StoreHits
	o.exp.WorkerBusyNS += h.WorkerBusyNS
	o.exp.WorkerIdleNS += h.WorkerIdleNS
}

func (o *repOut) addStore(s *store.Store) {
	h := s.Stats()
	o.store.Puts += h.Puts
	o.store.Hits += h.Hits
	o.store.Misses += h.Misses
	o.storeLen = s.SizeBytes()
}

// sweepOpts are the engine flags of one workload.
type sweepOpts struct {
	workers       int
	observe, join bool
}

var (
	coldOpts  = sweepOpts{workers: 1}
	churnOpts = sweepOpts{workers: 2, observe: true, join: true}
)

// The two mid-scale lists exclude MGS: it has no mid size (mid is its
// paper size, ~1 s per run), and one rep must stay near a second for
// the run to fit several. MGS runs in churn-small.
const midProcs = 8

func midSpec(app string, v core.Version, p proto.Name, hp proto.PolicyName, contention int) exp.Spec {
	return exp.Spec{App: app, Version: v, Procs: midProcs, Scale: core.MidScale,
		Protocol: p, HomePolicy: hp, Contention: contention}.Normalize()
}

// dsmMidSpecs is the coherence-heavy list: both protocols, both DSM
// front ends, first-touch homes, the push and enhanced-interface
// variants, regular and irregular access, locks (3-D FFT).
func dsmMidSpecs() []exp.Spec {
	l, h := proto.HomelessLRC, proto.HomeLRC
	return []exp.Spec{
		midSpec("Jacobi", core.Tmk, l, "", 0),
		midSpec("Jacobi", core.Tmk, h, proto.FirstTouchPolicy, 0),
		midSpec("Jacobi", core.TmkPush, l, "", 0),
		midSpec("3-D FFT", core.Tmk, h, "", 0),
		midSpec("3-D FFT", core.SPF, l, "", 0),
		midSpec("3-D FFT", core.SPF, h, "", 0),
		midSpec("3-D FFT", core.SPFOpt, l, "", 0),
		midSpec("IGrid", core.Tmk, l, "", 0),
	}
}

// mpMidSpecs is the bypass list: no coherence protocol runs at all.
// It is weighted towards numeric kernels — every sequential program,
// and the message-passing programs whose host time is closest to
// their sequential one — plus the uses of sim that request/reply never
// makes: serial NICs, and NBF's broadcast fallback through a one-way
// backplane (deep inboxes, the admit path).
func mpMidSpecs() []exp.Spec {
	var out []exp.Spec
	for _, app := range []string{"Jacobi", "3-D FFT", "NBF", "RB-SOR"} {
		out = append(out, midSpec(app, core.Seq, "", "", 0))
	}
	return append(out,
		midSpec("Jacobi", core.XHPF, "", "", 0),
		midSpec("Jacobi", core.XHPF, "", "", -1),
		midSpec("RB-SOR", core.XHPF, "", "", 0),
		midSpec("RB-SOR", core.PVMe, "", "", 0),
		midSpec("NBF", core.XHPF, "", "", 1),
	)
}

// churnGen is the number of generated programs in the churn list.
const churnGen = 60

// churnSpecs is the many-small-runs list: every paper-style version of
// every application at three machine sizes, both protocols, with and
// without contention, plus the generated programs gen-1..gen-churnGen
// under both compiler back ends. The programs are the same for every
// seed: they differ in size by several percent, and a seed that chose
// them would move every metric of four workloads by that much.
func churnSpecs() []exp.Spec {
	axes := exp.Axes{
		Apps:        exp.AppNames(),
		Versions:    []core.Version{core.Tmk, core.SPF, core.XHPF, core.PVMe},
		Procs:       []int{2, 4, 8},
		Protocols:   proto.Names(),
		Contentions: []int{0, 2},
	}
	out := axes.Specs(exp.Spec{Scale: core.SmallScale})
	for k := int64(1); k <= churnGen; k++ {
		for _, v := range []core.Version{core.SPFGen, core.XHPFGen} {
			out = append(out, exp.Spec{App: gen.Generate(k).Name, Version: v, Procs: 4, Scale: core.SmallScale})
		}
	}
	return out
}

// cut keeps the first two specs of a list for the smoke test.
func cut(specs []exp.Spec, smoke bool) []exp.Spec {
	if smoke {
		return specs[:2]
	}
	return specs
}

// shuffled returns the list in the seed's order: the order of the
// specs (and of the store keys) is what the seed decides.
func shuffled(specs []exp.Spec, seed int64) []exp.Spec {
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) {
		specs[i], specs[j] = specs[j], specs[i]
	})
	return specs
}

func newEngine(o sweepOpts, st *store.Store, tr *tracer) *exp.Engine {
	e := exp.New()
	e.Workers = o.workers
	e.Observe = o.observe
	e.JoinSpeedup = o.join
	e.Store = st
	if tr != nil {
		e.Lookup = tr.lookup
	}
	return e
}

// stream runs one cold sweep. The joined run error is dropped: a failed
// run is an error record, and the checks count those.
func stream(e *exp.Engine, specs []exp.Spec, tr *tracer) []byte {
	// Sized for the whole stream (a record line is under 512 bytes), or
	// the buffer's doublings, which fall differently for every order of
	// the list, move alloc_mb by 2 % from seed to seed.
	buf := bytes.NewBuffer(make([]byte, 0, 512*len(specs)))
	if tr == nil {
		e.StreamWith(buf, specs, nil) //nolint:errcheck // see above
		return buf.Bytes()
	}
	id := tr.begin(underRep, "exp.StreamWith", "")
	w := &encodeSpans{w: buf, tr: tr}
	e.StreamWith(w, specs, w.decorate) //nolint:errcheck // see above
	tr.end(id)
	return buf.Bytes()
}

func sweepWorkload(name, why string, o sweepOpts, list func() []exp.Spec) *workload {
	return &workload{
		name: name, virt: name, why: why,
		setup: func(seed int64, smoke bool) (*state, error) {
			specs := cut(shuffled(list(), seed), smoke)
			base, err := runBaselines(specs)
			return &state{specs: specs, base: base}, err
		},
		rep: func(st *state, tr *tracer) (repOut, error) {
			e := newEngine(o, nil, tr)
			out := repOut{stream: stream(e, st.specs, tr), ops: len(st.specs)}
			out.addEngine(e)
			return out, nil
		},
		check: func(st *state, out repOut) (int, int) {
			return checkStream(st.base, st.specs, out.stream)
		},
	}
}

// storeOps is the number of Puts in one store-write rep, servePasses
// the number of warm sweeps in one store-serve rep, serveReopen how
// many passes share one store.Open.
const (
	storeOps    = 2048
	servePasses = 64
	serveReopen = 32
)

func storeWriteWorkload() *workload {
	return &workload{
		name: "store-write", virt: "churn-small",
		why: "one flock, append and fsync per record is the whole cost; where group commit must show",
		setup: func(seed int64, smoke bool) (*state, error) {
			specs, size := cut(churnSpecs(), smoke), storeOps
			if smoke {
				size = 16
			}
			lines := linesOf(stream(newEngine(churnOpts, nil, nil), specs, nil))
			if len(lines) != len(specs) {
				return nil, fmt.Errorf("store-write: corpus sweep gave %d lines for %d specs", len(lines), len(specs))
			}
			st := &state{specs: specs, corpus: make([]kv, size)}
			for i := range st.corpus {
				j := i % len(specs)
				st.corpus[i] = kv{key: fmt.Sprintf("%s#%d", exp.StoreKey(specs[j], true), i), val: lines[j]}
			}
			rand.New(rand.NewSource(seed)).Shuffle(size, func(i, j int) {
				st.corpus[i], st.corpus[j] = st.corpus[j], st.corpus[i]
			})
			var err error
			st.dir, err = os.MkdirTemp(outDir(), "store-write-")
			return st, err
		},
		rep: func(st *state, tr *tracer) (repOut, error) {
			out := repOut{ops: len(st.corpus)}
			dir, err := os.MkdirTemp(st.dir, "rep-")
			if err != nil {
				return out, err
			}
			out.dir = dir
			id := tr.begin(underRep, "store.Open", "")
			s, err := store.Open(dir, exp.StoreOptions(0))
			tr.end(id)
			if err != nil {
				return out, err
			}
			var bad atomic.Int64
			var wg sync.WaitGroup
			const clients = 2
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(st.corpus); i += clients {
						id := tr.begin(underRep, "store.Put", "")
						if err := s.Put(st.corpus[i].key, st.corpus[i].val); err != nil {
							bad.Add(1)
						}
						tr.end(id)
					}
				}(g)
			}
			wg.Wait()
			out.addStore(s)
			err = s.Close()
			out.opsBad = int(bad.Load())
			return out, err
		},
		// Every Put must be readable, byte for byte, after a reopen.
		check: func(st *state, out repOut) (int, int) {
			defer os.RemoveAll(out.dir)
			failed := out.opsBad
			s, err := store.Open(out.dir, exp.StoreOptions(0))
			if err != nil {
				return 2 * out.ops, out.ops + failed
			}
			defer s.Close()
			for _, e := range st.corpus {
				if got, ok := s.Get(e.key); !ok || !bytes.Equal(got, e.val) {
					failed++
				}
			}
			return 2 * out.ops, failed
		},
	}
}

func storeServeWorkload() *workload {
	return &workload{
		name: "store-serve", virt: "churn-small",
		why: "reads beside writes on one layer: Get, CRC re-verify, decode, re-encode and the open-time scan; a write-path change that slows serving shows here",
		setup: func(seed int64, smoke bool) (*state, error) {
			st := &state{specs: cut(shuffled(churnSpecs(), seed), smoke), passes: servePasses}
			if smoke {
				st.passes = 2
			}
			var err error
			if st.base, err = runBaselines(st.specs); err != nil {
				return nil, err
			}
			if st.dir, err = os.MkdirTemp(outDir(), "store-serve-"); err != nil {
				return nil, err
			}
			s, err := store.Open(st.dir, exp.StoreOptions(0))
			if err != nil {
				return nil, err
			}
			st.want = stream(newEngine(churnOpts, s, nil), st.specs, nil)
			return st, s.Close()
		},
		rep: func(st *state, tr *tracer) (repOut, error) {
			out := repOut{ops: st.passes * len(st.specs)}
			var s *store.Store
			for p := 0; p < st.passes; p++ {
				if p%serveReopen == 0 {
					if s != nil {
						out.addStore(s)
						if err := s.Close(); err != nil {
							return out, err
						}
					}
					id := tr.begin(underRep, "store.Open", "")
					var err error
					s, err = store.Open(st.dir, exp.StoreOptions(0))
					tr.end(id)
					if err != nil {
						return out, err
					}
				}
				e := newEngine(churnOpts, s, tr)
				out.stream = stream(e, st.specs, tr)
				out.addEngine(e)
				if !bytes.Equal(out.stream, st.want) {
					out.opsBad += len(st.specs)
				}
			}
			out.addStore(s)
			return out, s.Close()
		},
		// Nothing may execute, and the last pass must still pass every
		// record check the cold stream passes.
		check: func(st *state, out repOut) (int, int) {
			att, failed := checkStream(st.base, st.specs, out.stream)
			return out.ops + att, out.opsBad + failed + int(out.exp.RunsStarted)
		},
	}
}

func fabricWorkload() *workload {
	return &workload{
		name: "fabric-loop2", virt: "churn-small",
		why: "churn-small's inputs with the service layer in the path: wall over churn-small's is the fabric's overhead where it cannot win on cores",
		setup: func(seed int64, smoke bool) (*state, error) {
			st := &state{specs: cut(shuffled(churnSpecs(), seed), smoke)}
			var err error
			st.base, err = runBaselines(st.specs)
			st.want = stream(newEngine(churnOpts, nil, nil), st.specs, nil)
			return st, err
		},
		rep: func(st *state, tr *tracer) (repOut, error) {
			out := repOut{ops: len(st.specs)}
			root := tr.begin(underRep, "fabric.Coordinator.Run", "")
			var wrap func(http.Handler) http.Handler
			if tr != nil {
				wrap = func(h http.Handler) http.Handler { return tr.handler(root, h) }
			}
			addrs, stop := startWorkers(2, wrap)
			out.stream, out.fabric = fabricRun(addrs, st.specs)
			stop()
			tr.end(root)
			return out, nil
		},
		// The merged stream must be the local stream, byte for byte.
		check: func(st *state, out repOut) (int, int) {
			att, failed := checkStream(st.base, st.specs, out.stream)
			if !bytes.Equal(out.stream, st.want) {
				failed = att
			}
			return att, failed
		},
	}
}

var workloads = []*workload{
	sweepWorkload("dsm-mid",
		"sim scheduling and proto/tmk fault repair, twins and diffs are most of the host time; the latency of one dsmrun",
		coldOpts, dsmMidSpecs),
	sweepWorkload("mp-mid",
		"the bypass: numeric kernels and payload copies, no coherence protocol, bulk and broadcast use of sim; a sim/proto gain must not move it",
		coldOpts, mpMidSpecs),
	sweepWorkload("churn-small",
		"hundreds of millisecond runs on the parallel worker pool: per-run fixed cost, obs attribution and loopc compile dominate; what CI and benchtraj do",
		churnOpts, churnSpecs),
	storeWriteWorkload(),
	storeServeWorkload(),
	fabricWorkload(),
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
