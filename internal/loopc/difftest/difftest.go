// Package difftest is the checking half of the differential
// compiler-fuzzing rig (internal/loopc/gen generates the workloads). It
// runs a generated program through every backend the compiler lowers to
// — the sequential interpreter, the fork-join DSM runtime under both
// coherence protocols and all home-placement policies, the
// message-passing runtime — across processor counts, and asserts two
// properties:
//
//   - agreement: every run's checksum equals the loopc.Oracle value for
//     that backend's partition, bit for bit (protocols and policies
//     change traffic, never results);
//   - determinism: repeating a configuration reproduces the checksum,
//     the virtual time, and the message/byte totals exactly.
//
// A failing program is shrunk by Minimize (delta debugging over the
// spec: drop nests and statements, shrink the grid and iteration
// counts, zero offsets, simplify expressions) and written out by
// WriteRepro as a committable corpus entry plus a Go literal.
package difftest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/loopc/gen"
	"repro/internal/model"
	"repro/internal/proto"
)

// Options configures a differential check.
type Options struct {
	// Procs lists the processor counts to check the parallel backends
	// at. Default: 1, 2, 4, 8 (up to the generator's envelope).
	Procs []int
	// Repeats is how many times each configuration runs when checking
	// determinism. Default 2; 1 disables the repeat check.
	Repeats int
}

func (o Options) withDefaults() Options {
	if len(o.Procs) == 0 {
		o.Procs = []int{1, 2, 4, 8}
	}
	if o.Repeats == 0 {
		o.Repeats = 2
	}
	return o
}

// Divergence describes one failed assertion.
type Divergence struct {
	Program  string
	Seed     int64
	Version  core.Version
	Procs    int
	Protocol proto.Name
	Policy   proto.PolicyName
	Kind     string // "checksum" or "nondeterminism"
	Detail   string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s procs=%d proto=%s policy=%s: %s: %s",
		d.Program, d.Version, d.Procs, d.Protocol, d.Policy, d.Kind, d.Detail)
}

// runConfig is one point of the configuration lattice.
type runConfig struct {
	version  core.Version
	procs    int
	protocol proto.Name
	policy   proto.PolicyName
}

// lattice enumerates the configurations for the given processor counts:
// seq at one processor; spf-gen under {lrc} ∪ {hlrc × policies} at each
// count; xhpf-gen at each count (protocol-free).
func lattice(procs []int) []runConfig {
	out := []runConfig{{version: core.Seq, procs: 1, protocol: proto.HomelessLRC}}
	for _, p := range procs {
		out = append(out, runConfig{version: core.SPFGen, procs: p, protocol: proto.HomelessLRC})
		for _, pol := range proto.PolicyNames() {
			out = append(out, runConfig{version: core.SPFGen, procs: p, protocol: proto.HomeLRC, policy: pol})
		}
		out = append(out, runConfig{version: core.XHPFGen, procs: p})
	}
	return out
}

// Check runs the full differential lattice over one program and returns
// every divergence found. Apps are driven directly (not through the
// exp.Engine cache): the determinism assertion needs genuinely
// independent repeat runs.
func Check(ps *gen.ProgramSpec, opts Options) ([]Divergence, error) {
	opts = opts.withDefaults()
	app, err := gen.NewApp(ps)
	if err != nil {
		return nil, err
	}
	var divs []Divergence
	for _, rc := range lattice(opts.Procs) {
		want, err := app.ExpectedChecksum(rc.version, rc.procs)
		if err != nil {
			return divs, err
		}
		cfg := app.Config(core.SmallScale, rc.procs)
		cfg.Costs = model.SP2() // the engine's calibration
		cfg.App = model.DefaultAppCosts()
		cfg.Protocol = rc.protocol
		cfg.HomePolicy = rc.policy

		first, err := app.Run(rc.version, cfg)
		if err != nil {
			return divs, fmt.Errorf("%s %s procs=%d: %w", ps.Name, rc.version, rc.procs, err)
		}
		if first.Checksum != want {
			divs = append(divs, Divergence{
				Program: ps.Name, Seed: ps.Seed,
				Version: rc.version, Procs: rc.procs,
				Protocol: rc.protocol, Policy: rc.policy,
				Kind:   "checksum",
				Detail: fmt.Sprintf("got %x, oracle %x", first.Checksum, want),
			})
			continue // determinism of a wrong answer is uninteresting
		}
		for rep := 1; rep < opts.Repeats; rep++ {
			again, err := app.Run(rc.version, cfg)
			if err != nil {
				return divs, fmt.Errorf("%s %s procs=%d repeat: %w", ps.Name, rc.version, rc.procs, err)
			}
			var why string
			switch {
			case again.Checksum != first.Checksum:
				why = fmt.Sprintf("checksum %x then %x", first.Checksum, again.Checksum)
			case again.Time != first.Time:
				why = fmt.Sprintf("time %v then %v", first.Time, again.Time)
			case again.Stats.TotalMsgs() != first.Stats.TotalMsgs():
				why = fmt.Sprintf("msgs %d then %d", first.Stats.TotalMsgs(), again.Stats.TotalMsgs())
			case again.Stats.TotalBytes() != first.Stats.TotalBytes():
				why = fmt.Sprintf("bytes %d then %d", first.Stats.TotalBytes(), again.Stats.TotalBytes())
			}
			if why != "" {
				divs = append(divs, Divergence{
					Program: ps.Name, Seed: ps.Seed,
					Version: rc.version, Procs: rc.procs,
					Protocol: rc.protocol, Policy: rc.policy,
					Kind:   "nondeterminism",
					Detail: fmt.Sprintf("repeat %d: %s", rep, why),
				})
				break
			}
		}
	}
	return divs, nil
}
