// Package repro is a from-scratch Go reproduction of Cox, Dwarkadas, Lu
// and Zwaenepoel, "Evaluating the Performance of Software Distributed
// Shared Memory as a Target for Parallelizing Compilers" (IPPS 1997).
//
// The paper's machine — an 8-node IBM SP/2 running TreadMarks, the APR
// Forge SPF/XHPF compilers, and PVMe — is rebuilt on a deterministic
// discrete-event simulator (internal/sim) with a calibrated cost model
// (internal/model). The TreadMarks DSM protocol (internal/tmk), the SPF
// fork-join runtime (internal/spf), the XHPF SPMD runtime
// (internal/xhpf) and a PVMe-style message-passing library
// (internal/pvm) are real protocol implementations operating on real
// data; only time is virtual. Six applications (internal/apps/...) run
// in every version the paper compares, and internal/harness regenerates
// every table and figure. See README.md, DESIGN.md and EXPERIMENTS.md.
//
// Each experiment is defined once, as a harness table: `dsmrun -tables`
// prints it, and the harness's golden records pin it. This package
// holds only the tests that check the documents and the exported
// surface against the tree.
package repro
