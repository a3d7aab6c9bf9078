package exp

import (
	"fmt"

	"repro/internal/apps/fft3d"
	"repro/internal/apps/igrid"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/mgs"
	"repro/internal/apps/nbf"
	"repro/internal/apps/rbsor"
	"repro/internal/apps/shallow"
	"repro/internal/core"
	"repro/internal/loopc/gen"
)

// registry holds every application once: the paper's six in the
// paper's order, then the kernels added through the internal/loopc
// compiler front end. The values are stateless, so callers share them.
var registry = []core.App{
	jacobi.New(), shallow.New(), mgs.New(), fft3d.New(), igrid.New(), nbf.New(),
	rbsor.New(),
}

// tolerance is each application's relative checksum tolerance between
// runs that differ in version or processor count (Agree). Every other
// application, and every gen-<seed> program, folds its result in index
// order and is held bitwise. Each entry is about ten times the largest
// drift from seq measured at procs 1–32 (small, mid) and 2, 4, 8 (paper).
var tolerance = map[string]float64{
	"3-D FFT": 1e-14, // elements are bitwise equal; the checksum's partial sums fold per processor: ≤ 1.05e-15 measured
	"NBF":     5e-10, // force contributions fold per processor block, so coordinates move by ulps: ≤ 4.48e-11 measured
}

// PaperApps returns the six applications in the paper's order.
func PaperApps() []core.App { return append([]core.App(nil), registry[:6]...) }

// Apps returns every application: the paper's six plus the added kernels.
func Apps() []core.App { return append([]core.App(nil), registry...) }

// AppByName finds an application (including the non-paper kernels).
// Names of the form "gen-<seed>" resolve to generated loopc programs
// (see internal/loopc/gen); they are constructed on demand and stay out
// of Apps(), so registry-driven sweeps and golden tables never pick
// them up implicitly.
func AppByName(name string) (core.App, error) {
	if seed, ok := gen.ParseSeed(name); ok {
		return gen.AppForSeed(seed), nil
	}
	for _, a := range registry {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown application %q", name)
}

// checkAppName is AppByName's verdict without the application: record
// validation checks a name per line and must not generate and compile
// a gen-<seed> program to do it. AppForSeed cannot fail, so the accept
// set is AppByName's exactly.
func checkAppName(name string) error {
	if _, ok := gen.ParseSeed(name); ok {
		return nil
	}
	_, err := AppByName(name)
	return err
}

// AppNames lists every application name in registry order.
func AppNames() []string {
	out := make([]string, len(registry))
	for i, a := range registry {
		out[i] = a.Name()
	}
	return out
}
