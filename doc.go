// Package zeppelin is a from-scratch Go reproduction of "Zeppelin:
// Balancing Variable-length Workloads in Data Parallel Large Model
// Training" (EuroSys 2026). The root package only anchors the module's
// benchmark harness (bench_test.go).
//
// The public, versioned API is pkg/zeppelin; its package documentation
// is the reference for every entry point. README.md is the how-to: the
// CLI and daemon walkthroughs, the tour of the internal/ packages, and
// the per-figure reproduction notes.
package zeppelin
