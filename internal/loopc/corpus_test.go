package loopc_test

import (
	"testing"

	"repro/internal/loopc"
	"repro/internal/loopc/gen"
)

// TestCorpusSampleReachesBothXHPFStorages: the message-passing back end
// stores an array in one of two ways (RunXHPF): replicated, or as a
// block and halo. The generated programs that the harness's compiled
// equivalence tests run under -short (its corpusSampleSeeds: 3 and 9
// of 3, 9, 17, 30, 40) must reach both, so that every run of those
// tests covers both storage paths of xhpf-gen.
func TestCorpusSampleReachesBothXHPFStorages(t *testing.T) {
	var replicating, allBanded int
	for _, seed := range []int64{3, 9} {
		a := gen.AppForSeed(seed)
		replicates, err := loopc.XHPFReplicates(a.Program(), a.Spec().N)
		if err != nil {
			t.Fatal(err)
		}
		if replicates {
			replicating++
		} else {
			allBanded++
		}
	}
	if replicating == 0 || allBanded == 0 {
		t.Errorf("corpus sample has %d programs with replicated arrays and %d with none: need both storage paths of xhpf-gen",
			replicating, allBanded)
	}
}
