// The table walk over whole applications lives in an external test
// package: the applications import tmk, which imports proto.
package proto_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// TestEveryRunKeepsTheTableInvariants runs every DSM version of every
// application at small scale on 3 processes, under the homeless protocol
// and under the home-based one with each home policy, and walks the
// per-page tables of every node at the end of each run (checkTables).
func TestEveryRunKeepsTheTableInvariants(t *testing.T) {
	const procs = 3
	type setting struct {
		p   proto.Name
		pol proto.PolicyName
	}
	settings := []setting{{p: proto.HomelessLRC}}
	for _, pol := range proto.PolicyNames() {
		settings = append(settings, setting{proto.HomeLRC, pol})
	}
	e := exp.New()
	for _, a := range exp.Apps() {
		for _, v := range a.Versions() {
			if !core.Describe(v).Runtime.OnDSM() {
				continue
			}
			for _, st := range settings {
				s := exp.Spec{App: a.Name(), Version: v, Procs: procs, Scale: core.SmallScale, Protocol: st.p, HomePolicy: st.pol}
				stop := proto.WatchRuns()
				_, err := e.Run(s)
				nodes := stop()
				if err != nil {
					t.Fatalf("%s: %v", s.Key(), err)
				}
				if len(nodes) != procs {
					t.Fatalf("%s: the run made %d protocol instances, want %d", s.Key(), len(nodes), procs)
				}
				if err := proto.CheckTables(nodes); err != nil {
					t.Errorf("%s: %v", s.Key(), err)
				}
			}
		}
	}
}
