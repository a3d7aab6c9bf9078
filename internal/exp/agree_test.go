package exp

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestAgree walks the rule: a non-finite checksum never agrees; runs
// that differ only in protocol, home policy or contention are held
// bitwise; other pairs within the application's tolerance, which is 0
// for all but 3-D FFT and NBF. The drifts are the largest measured
// from seq (registry.go's tolerance table). Digests are compared only
// where both records carry one, and then must be equal; so are wsums,
// within the tolerance.
func TestAgree(t *testing.T) {
	rec := func(app string, v core.Version, procs int, scale core.Scale, sum, rel float64) Record {
		return Record{Spec: Spec{App: app, Version: v, Procs: procs, Scale: scale}, Checksum: sum * (1 + rel)}
	}
	const fft, nbf, jacobi = -0.0437342409917, 57214.83101412654, 461.0546875
	ulp := math.Nextafter(jacobi, 1000)/jacobi - 1
	fftSeq, nbfSeq := rec("3-D FFT", core.Seq, 1, core.MidScale, fft, 0), rec("NBF", core.Seq, 1, core.MidScale, nbf, 0)
	fftSPF := rec("3-D FFT", core.SPF, 3, core.MidScale, fft, 0)
	jacobiSeq, jacobiPVM := rec("Jacobi", core.Seq, 1, core.SmallScale, jacobi, 0), rec("Jacobi", core.PVMe, 4, core.SmallScale, jacobi, 0)
	digested := func(r Record, d uint64) Record { r.Digest = d; return r }
	const ws = 4593.35484414436
	weighed := func(r Record, rel float64) Record { r.WSum = ws * (1 + rel); return r }
	nbfPVM := rec("NBF", core.PVMe, 3, core.MidScale, nbf, 0)
	for _, c := range []struct {
		name      string
		got, want Record
		agree     bool
	}{
		{"a finite record agrees with itself", fftSeq, fftSeq, true},
		{"NaN never agrees", rec("Shallow", core.Seq, 1, core.PaperScale, math.NaN(), 0), fftSeq, false},
		{"nor does an infinite baseline", fftSeq, rec("3-D FFT", core.Seq, 1, core.MidScale, math.Inf(1), 0), false},
		{"3-D FFT spf at its measured drift", rec("3-D FFT", core.SPF, 3, core.MidScale, fft, 1.05e-15), fftSeq, true},
		{"3-D FFT spf at 10x its tolerance", rec("3-D FFT", core.SPF, 3, core.MidScale, fft, 10*tolerance["3-D FFT"]), fftSeq, false},
		{"3-D FFT under another protocol: bitwise", Record{Spec: Spec{App: "3-D FFT", Version: core.SPF, Procs: 3, Scale: core.MidScale, Protocol: "hlrc"}, Checksum: fft * (1 + 1.05e-15)}, fftSPF, false},
		{"NBF pvme at its measured drift", rec("NBF", core.PVMe, 3, core.MidScale, nbf, 4.48e-11), nbfSeq, true},
		{"NBF pvme at 10x its tolerance", rec("NBF", core.PVMe, 3, core.MidScale, nbf, 10*tolerance["NBF"]), nbfSeq, false},
		{"NBF across scales: bitwise", rec("NBF", core.Seq, 1, core.SmallScale, nbf, 4.48e-11), nbfSeq, false},
		{"Jacobi tmk one ulp off seq", rec("Jacobi", core.Tmk, 4, core.SmallScale, jacobi, ulp), rec("Jacobi", core.Seq, 1, core.SmallScale, jacobi, 0), false},
		{"a generated program one ulp off seq", rec("gen-3", core.SPFGen, 4, core.SmallScale, jacobi, ulp), rec("gen-3", core.Seq, 1, core.SmallScale, jacobi, 0), false},
		{"equal digests", digested(jacobiPVM, 7), digested(jacobiSeq, 7), true},
		{"a digest that moved under an equal checksum", digested(jacobiPVM, 8), digested(jacobiSeq, 7), false},
		{"a digest on one side only", digested(jacobiPVM, 8), jacobiSeq, true},
		{"a digest on the other side only", jacobiPVM, digested(jacobiSeq, 7), true},
		{"NBF wsum at its measured drift", weighed(nbfPVM, 3.88e-11), weighed(nbfSeq, 0), true},
		{"NBF wsum at 10x its tolerance under an equal checksum", weighed(nbfPVM, 10*tolerance["NBF"]), weighed(nbfSeq, 0), false},
		{"NBF wsum under another protocol: bitwise", weighed(Record{Spec: Spec{App: "NBF", Version: core.PVMe, Procs: 3, Scale: core.MidScale, Protocol: "hlrc"}, Checksum: nbf}, 3.88e-11), weighed(nbfPVM, 0), false},
		{"a wsum on one side only", weighed(nbfPVM, 1), nbfSeq, true},
	} {
		if err := Agree(c.got, c.want); (err == nil) != c.agree {
			t.Errorf("%s: Agree = %v, want agreement %v", c.name, err, c.agree)
		}
	}
	nan := rec("Shallow", core.Tmk, 8, core.PaperScale, math.NaN(), 0)
	if err := Agree(nan, nan); err == nil || err.Error() != "Shallow/tmk: non-finite checksum" {
		t.Errorf("Agree(NaN, NaN) = %v, want the run's non-finite checksum", err)
	}
	drifted := rec("3-D FFT", core.SPF, 3, core.MidScale, fft, 1.05e-15)
	if n := testing.AllocsPerRun(100, func() { Agree(drifted, fftSeq) }); n != 0 { //nolint:errcheck // they agree
		t.Errorf("agreeing records cost %v allocations, want 0", n)
	}
}
