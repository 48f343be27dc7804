// Package thermalscaffold reproduces "Thermal Scaffolding for
// Ultra-Dense 3D Integrated Circuits" (Rich et al., DAC 2023) as a
// pure-Go library: materials models for the nanocrystalline-diamond
// thermal dielectric, a finite-volume 3D-IC thermal simulator, BEOL
// homogenization, the pillar placement algorithm, the conventional
// thermal-aware baselines (metallization, floorplanning, scheduling),
// and a co-design engine that regenerates every table and figure of
// the paper's evaluation.
//
// The solver's hot path runs on a deterministic worker pool
// (internal/parallel): solver.Options.Workers selects the width
// (0 = one per CPU core, 1 = the exact serial legacy path), chunk
// boundaries are independent of the worker count, and reductions
// combine partials in a fixed order, so results are bit-identical
// run-to-run and across worker counts ≥ 2. See DESIGN.md §6.
//
// PCG offers two preconditioners (solver.Options.Precond). Geometric
// multigrid (x/y semi-coarsening with red-black z-line Gauss-Seidel
// smoothing) is the zero-value default for every caller: its
// iteration count stays nearly flat under grid refinement, and it
// solves the narrow-cell stacks that z-line (per-column Thomas, the
// one-level hierarchy) stagnates on. The cmd/thermsim binary exposes
// the choice as -precond multigrid|zline. See DESIGN.md §7.
//
// See README.md for the architecture overview, DESIGN.md for the
// system inventory and per-experiment index, and EXPERIMENTS.md for
// the paper-vs-measured comparison. The root-level benchmarks
// (bench_test.go) time one regeneration of each experiment; the
// cmd/paperfigs binary prints them at full fidelity.
package thermalscaffold
