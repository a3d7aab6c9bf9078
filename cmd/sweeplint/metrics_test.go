package main

import (
	"expvar"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/store"
)

// TestValidateMetricsAccepts: a map carrying every section — an
// engine with a store under a coordinator's local fallback, beside a
// fabric worker — validates, and counts its seven sections.
func TestValidateMetricsAccepts(t *testing.T) {
	st, err := store.Open(t.TempDir(), exp.StoreOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := new(expvar.Map)
	fabric.NewWorker(m)
	eng := exp.New()
	eng.Store = st
	c := &fabric.Coordinator{Engine: eng, Metrics: m}
	specs := []exp.Spec{{App: "Jacobi", Version: core.Tmk, Procs: 2, Scale: core.SmallScale}}
	if _, err := c.Run(io.Discard, specs); err != nil {
		t.Fatal(err)
	}
	n, err := validateMetrics(strings.NewReader(m.String()))
	if err != nil {
		t.Fatalf("%v:\n%s", err, m.String())
	}
	if n != 7 {
		t.Errorf("%d sections, want 7:\n%s", n, m.String())
	}
}

// TestValidateMetricsRejects feeds seeded bad documents to the
// validator; each must fail.
func TestValidateMetricsRejects(t *testing.T) {
	const hist = `{"bounds":[1,2],"counts":[1,0,1],"count":2,"sum":9}`
	good := `{"engine": {"runs_started":1}, "run_host_seconds": {"Jacobi/tmk": ` + hist + `}}`
	if _, err := validateMetrics(strings.NewReader(good)); err != nil {
		t.Fatalf("the unseeded document is rejected: %v", err)
	}
	fabric := func(section string) string {
		return strings.Replace(good, `{"engine"`, `{"fabric": `+section+`, "engine"`, 1)
	}
	cases := map[string]string{
		"more runs completed than started": strings.Replace(good, `"runs_started":1`, `"runs_started":1,"runs_completed":2`, 1),
		"more runs resolved than planned":  strings.Replace(good, `"runs_started":1`, `"runs_started":1,"runs_planned":2,"runs_resolved":3`, 1),
		"more records done than total":     fabric(`{"records_done":3,"records_total":2,"workers":null}`),
		"more ranges done than total":      fabric(`{"ranges_done":2,"ranges_total":1,"workers":null}`),
		"count is not the buckets' sum":    strings.Replace(good, `"count":2`, `"count":3`, 1),
		"unknown section":                  strings.Replace(good, `"engine"`, `"engines"`, 1),
		"unknown field":                    strings.Replace(good, `"runs_started"`, `"runs_begun"`, 1),
		"descending bounds":                strings.Replace(good, `[1,2]`, `[2,1]`, 1),
		"no overflow bucket":               strings.Replace(good, `[1,0,1]`, `[1,1]`, 1),
		"no buckets":                       `{"run_host_seconds": {"Jacobi/tmk": {"bounds":[],"counts":[0],"count":0,"sum":0}}}`,
		"bad histogram in a family":        `{"run_alloc_bytes": {"Jacobi/tmk": {"bounds":[1],"counts":[1,1],"count":1,"sum":0}}}`,
		"trailing data":                    good + `{}`,
		"not an object":                    `[1]`,
	}
	for name, doc := range cases {
		if _, err := validateMetrics(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, doc)
		}
	}
}
