package solver

// Column-layout pins. Inside the solver every per-cell array is in
// column order (cell (i, j, k) at (j·nx + i)·nz + k); callers see grid
// order (mesh.Grid.Index). These tests pin the column-order operator
// and its kernels bit for bit, cell by cell, against a grid-order
// reference — the row-major assembly and SpMV the solver ran before
// the layout changed — and check that every boundary hands grid order
// back out.

import (
	"fmt"
	"math"
	"testing"
)

// rowOperator is an operator in grid order: cell (i, j, k) at
// (k·ny + j)·nx + i, with x, y and z strides 1, sy and sz.
type rowOperator struct {
	nx, ny, nz          int
	sy, sz              int
	gxp, gyp, gzp, diag []float64
	b, bBound           []float64
}

// rowsOf transposes op into grid order.
func rowsOf(op *operator) *rowOperator {
	ro := &rowOperator{
		nx: op.nx, ny: op.ny, nz: op.nz, sy: op.nx, sz: op.nx * op.ny,
		gxp: op.gridField(op.gxp), gyp: op.gridField(op.gyp),
		gzp: op.gridField(op.gzp), diag: op.gridField(op.diag),
	}
	if op.b != nil {
		ro.b = op.gridField(op.b)
	}
	if op.bBound != nil {
		ro.bBound = op.gridField(op.bBound)
	}
	return ro
}

// assemble is assembleOperator with a rhs b built from p's own
// sources, the operator most tests solve on.
func assemble(p *Problem) *operator {
	op := assembleOperator(p)
	op.b = make([]float64, len(op.diag))
	op.setSources(p.Q)
	return op
}

// faceG returns the series conductance (W/K) between two adjacent
// half-cells with the given face area, the textbook expression whose
// bits assembleOperator's one division per face reproduces.
func faceG(area, d1, k1, d2, k2 float64) float64 {
	return area / (halfRes(d1, k1) + halfRes(d2, k2))
}

// assembleRows is the grid-order assembly: the reference for assemble.
func assembleRows(p *Problem) *rowOperator {
	g := p.Grid
	nx, ny, nz := g.NX(), g.NY(), g.NZ()
	n := g.NumCells()
	op := &rowOperator{
		nx: nx, ny: ny, nz: nz, sy: nx, sz: nx * ny,
		gxp: make([]float64, n), gyp: make([]float64, n), gzp: make([]float64, n),
		diag: make([]float64, n), b: make([]float64, n),
	}
	bound := func(c int, area, d, k float64, bc Boundary) {
		if gb := boundaryG(area, halfRes(d, k), bc); gb != 0 {
			op.diag[c] += gb
			op.b[c] += gb * bc.T
		}
	}
	for k := 0; k < nz; k++ {
		dz := g.DZ(k)
		for j := 0; j < ny; j++ {
			dy := g.DY(j)
			for i := 0; i < nx; i++ {
				dx := g.DX(i)
				c := g.Index(i, j, k)
				areaX, areaY, areaZ := dy*dz, dx*dz, dx*dy
				if i+1 < nx {
					gc := faceG(areaX, dx, p.KX[c], g.DX(i+1), p.KX[c+1])
					op.gxp[c] = gc
					op.diag[c] += gc
					op.diag[c+1] += gc
				}
				if j+1 < ny {
					gc := faceG(areaY, dy, p.KY[c], g.DY(j+1), p.KY[c+op.sy])
					op.gyp[c] = gc
					op.diag[c] += gc
					op.diag[c+op.sy] += gc
				}
				if k+1 < nz {
					gc := faceG(areaZ, dz, p.KZ[c], g.DZ(k+1), p.KZ[c+op.sz])
					if p.ZPlaneTBR != nil && p.ZPlaneTBR[k] > 0 {
						gc = 1 / (1/gc + p.ZPlaneTBR[k]/areaZ)
					}
					op.gzp[c] = gc
					op.diag[c] += gc
					op.diag[c+op.sz] += gc
				}
				if i == 0 {
					bound(c, areaX, dx, p.KX[c], p.Bounds[XMin])
				}
				if i == nx-1 {
					bound(c, areaX, dx, p.KX[c], p.Bounds[XMax])
				}
				if j == 0 {
					bound(c, areaY, dy, p.KY[c], p.Bounds[YMin])
				}
				if j == ny-1 {
					bound(c, areaY, dy, p.KY[c], p.Bounds[YMax])
				}
				if k == 0 {
					bound(c, areaZ, dz, p.KZ[c], p.Bounds[ZMin])
				}
				if k == nz-1 {
					bound(c, areaZ, dz, p.KZ[c], p.Bounds[ZMax])
				}
			}
		}
	}
	op.bBound = append([]float64(nil), op.b...)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				c := g.Index(i, j, k)
				op.b[c] = op.bBound[c] + p.Q[c]*g.DX(i)*g.DY(j)*g.DZ(k)
			}
		}
	}
	return op
}

// rowApply is the grid-order SpMV y = A·x, each cell's terms guarded
// and in the order diagonal, east, west, north, south, up, down.
func rowApply(op *rowOperator, x, y []float64) {
	sy, sz := op.sy, op.sz
	for c := range y {
		v := op.diag[c] * x[c]
		if g := op.gxp[c]; g != 0 {
			v -= g * x[c+1]
		}
		if c >= 1 {
			if g := op.gxp[c-1]; g != 0 {
				v -= g * x[c-1]
			}
		}
		if g := op.gyp[c]; g != 0 {
			v -= g * x[c+sy]
		}
		if c >= sy {
			if g := op.gyp[c-sy]; g != 0 {
				v -= g * x[c-sy]
			}
		}
		if g := op.gzp[c]; g != 0 {
			v -= g * x[c+sz]
		}
		if c >= sz {
			if g := op.gzp[c-sz]; g != 0 {
				v -= g * x[c-sz]
			}
		}
		y[c] = v
	}
}

// layoutShape is one operator the layout pins run on.
type layoutShape struct {
	name string
	op   func(t *testing.T) *operator
}

// layoutShapes are the workload shapes — the paper flow's 12×12×74,
// the trace's 16×16×74 on its transient (C/Δt + A) operator, hot's
// 16×16×14 and coldfam's 32×32×14 — and the degenerate ones: a single
// column, a single row or column of columns, an odd plan, each at nz 1
// and 2, plus a random anisotropic problem with interface resistances
// and an operator with zero interior couplings, which runs every cell
// on the guarded path.
func layoutShapes() []layoutShape {
	shapes := []layoutShape{
		{"12x12x74", func(t *testing.T) *operator { return workloadOperator(t, 12, 24, 0) }},
		{"16x16x74-transient", func(t *testing.T) *operator { return workloadOperator(t, 16, 24, 1e-4) }},
		{"16x16x14", func(t *testing.T) *operator { return workloadOperator(t, 16, 4, 0) }},
		{"32x32x14", func(t *testing.T) *operator { return workloadOperator(t, 32, 4, 0) }},
	}
	for _, nz := range []int{1, 2} {
		for _, s := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}} {
			nx, ny := s[0], s[1]
			shapes = append(shapes, layoutShape{fmt.Sprintf("%dx%dx%d", nx, ny, nz), func(t *testing.T) *operator {
				return assemble(shapeProblem(t, nx, ny, nz))
			}})
		}
	}
	shapes = append(shapes,
		layoutShape{"random-17x13x9", func(t *testing.T) *operator {
			return assemble(randomProblem(t, &eqRNG{s: 0x1a70}, 17, 13, 9))
		}},
		layoutShape{"guarded-8x8x6", func(t *testing.T) *operator {
			p := shapeProblem(t, 8, 8, 6)
			p.KX[p.Grid.Index(3, 3, 2)] = 0
			p.KZ[p.Grid.Index(5, 2, 4)] = 0
			op := assemble(p)
			if op.bare {
				t.Fatal("operator with zero interior couplings is marked bare")
			}
			return op
		}},
	)
	return shapes
}

// serialSum adds f(c) over c in [s, e) in index order.
func serialSum(s, e int, f func(c int) float64) float64 {
	sum := 0.0
	for c := s; c < e; c++ {
		sum += f(c)
	}
	return sum
}

// TestEquivalenceAssembleColumns: the column-order assembly holds, cell
// by cell, the bits of the grid-order assembly — couplings, diagonal,
// rhs and boundary rhs — and marks an operator bare exactly when every
// interior coupling is nonzero.
func TestEquivalenceAssembleColumns(t *testing.T) {
	rng := &eqRNG{s: 0xa55e}
	for _, sh := range [][3]int{{1, 1, 5}, {1, 7, 2}, {7, 1, 1}, {3, 5, 2}, {12, 10, 9}, {17, 13, 11}} {
		for _, p := range []*Problem{randomProblem(t, rng, sh[0], sh[1], sh[2]), shapeProblem(t, sh[0], sh[1], sh[2])} {
			op := assemble(p)
			got, want := rowsOf(op), assembleRows(p)
			for _, a := range []struct {
				name      string
				got, want []float64
			}{
				{"gxp", got.gxp, want.gxp}, {"gyp", got.gyp, want.gyp}, {"gzp", got.gzp, want.gzp},
				{"diag", got.diag, want.diag}, {"b", got.b, want.b}, {"bBound", got.bBound, want.bBound},
			} {
				if !bitIdentical(a.got, a.want) {
					t.Errorf("%v: %s differs from the grid-order assembly", sh, a.name)
				}
			}
			if !op.bare {
				t.Errorf("%v: operator with all interior couplings nonzero is not bare", sh)
			}
		}
	}
}

// TestEquivalenceSpMVColumns pins the four column SpMV kernels —
// applyRange, applyDot, applyDirDot and residual — to the grid-order
// reference bit for bit, cell by cell, on every layout shape at
// Workers 1, 2, 3 and 8. Each sum is pinned to the chunked sum of the
// same per-cell products in column order. A second pass splits the
// vector into ranges whose boundaries fall inside columns and calls
// the range kernels directly: every cell and every range's sum must
// come out the same.
func TestEquivalenceSpMVColumns(t *testing.T) {
	const beta = 0.37
	for _, sh := range layoutShapes() {
		t.Run(sh.name, func(t *testing.T) {
			op := sh.op(t)
			ro := rowsOf(op)
			n := len(op.diag)
			rng := &eqRNG{s: 0x5b3c}
			x, z, p := mgRandVec(rng, n), mgRandVec(rng, n), mgRandVec(rng, n)
			b := mgRandVec(rng, n)
			// The grid-order references, transposed to column order.
			ref := func(v []float64) []float64 {
				y := make([]float64, n)
				rowApply(ro, op.gridField(v), y)
				col := make([]float64, n)
				op.toColumns(col, y)
				return col
			}
			ax, ap := ref(x), ref(p)
			dir := make([]float64, n)
			for c := range dir {
				dir[c] = z[c] + beta*p[c]
			}
			adir := ref(dir)
			res := make([]float64, n)
			for c := range res {
				res[c] = b[c] - ax[c]
			}
			for _, w := range []int{1, 2, 3, 8} {
				kr := testKern(t, w, n)
				y := make([]float64, n)
				kr.apply(op, x, y)
				if !bitIdentical(y, ax) {
					t.Errorf("workers=%d: applyRange differs from the grid-order SpMV", w)
				}
				ap2 := make([]float64, n)
				if got, want := kr.applyDot(op, p, ap2), refReduce(n, w, func(c int) float64 { return p[c] * ap[c] }); !bitIdentical(ap2, ap) || got != want {
					t.Errorf("workers=%d: applyDot differs (sum %x, want %x)", w, math.Float64bits(got), math.Float64bits(want))
				}
				pn, apd := make([]float64, n), make([]float64, n)
				if got, want := kr.applyDirDot(op, z, p, pn, apd, beta), refReduce(n, w, func(c int) float64 { return dir[c] * adir[c] }); !bitIdentical(pn, dir) || !bitIdentical(apd, adir) || got != want {
					t.Errorf("workers=%d: applyDirDot differs (sum %x, want %x)", w, math.Float64bits(got), math.Float64bits(want))
				}
				r := make([]float64, n)
				if got, want := kr.residual(op, x, b, r), math.Sqrt(refReduce(n, w, func(c int) float64 { return res[c] * res[c] })); !bitIdentical(r, res) || got != want {
					t.Errorf("workers=%d: residual differs (norm %x, want %x)", w, math.Float64bits(got), math.Float64bits(want))
				}
			}
			// Ranges that start and end inside columns.
			cuts := []int{0}
			for c := 1 + op.nz/2; c < n; c += 2*op.nz + 3 {
				cuts = append(cuts, c)
			}
			cuts = append(cuts, n)
			y, ap2, pn, apd, r := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for q := 0; q+1 < len(cuts); q++ {
				s, e := cuts[q], cuts[q+1]
				op.applyRange(x, y, s, e)
				if got, want := applyDotRange(op, p, ap2, s, e), serialSum(s, e, func(c int) float64 { return p[c] * ap[c] }); got != want {
					t.Errorf("range [%d, %d): applyDotRange sum differs", s, e)
				}
				if got, want := applyDirDotRange(op, z, p, pn, apd, beta, s, e), serialSum(s, e, func(c int) float64 { return dir[c] * adir[c] }); got != want {
					t.Errorf("range [%d, %d): applyDirDotRange sum differs", s, e)
				}
				if got, want := residualRange(op, x, b, r, s, e), serialSum(s, e, func(c int) float64 { return res[c] * res[c] }); got != want {
					t.Errorf("range [%d, %d): residualRange sum differs", s, e)
				}
			}
			if !bitIdentical(y, ax) || !bitIdentical(ap2, ap) || !bitIdentical(pn, dir) || !bitIdentical(apd, adir) || !bitIdentical(r, res) {
				t.Error("range kernels split inside columns differ from the grid-order reference")
			}
		})
	}
}

// TestEquivalenceSpMVColumnPaths: on a bare operator the guard-free
// whole-column kernels and the guarded per-cell path give the same
// bits on every cell — same operator, same input, both strategies.
func TestEquivalenceSpMVColumnPaths(t *testing.T) {
	rng := &eqRNG{s: 0x57E9C}
	for _, size := range [][3]int{{1, 1, 6}, {5, 1, 3}, {1, 4, 1}, {12, 10, 8}, {17, 13, 7}} {
		op := assemble(randomProblem(t, rng, size[0], size[1], size[2]))
		if !op.bare {
			t.Fatalf("size %v: operator not bare", size)
		}
		n := len(op.diag)
		x, z, p := mgRandVec(rng, n), mgRandVec(rng, n), mgRandVec(rng, n)
		yCells, yCols := make([]float64, n), make([]float64, n)
		op.applyCells(x, yCells, 0, n)
		pnCells, apCells := make([]float64, n), make([]float64, n)
		sumCells := dirCells(op, z, p, pnCells, apCells, 0.61, 0, n, 0)
		pnCols, apCols := make([]float64, n), make([]float64, n)
		sumCols := 0.0
		for j := 0; j < op.ny; j++ {
			for i := 0; i < op.nx; i++ {
				c := op.index(i, j, 0)
				op.applyColumn(x, yCols, c, i, j)
				sumCols = dirColumn(op, z, p, pnCols, apCols, 0.61, c, i, j, sumCols)
			}
		}
		if !bitIdentical(yCells, yCols) {
			t.Errorf("size %v: whole-column SpMV differs from the per-cell path", size)
		}
		if !bitIdentical(pnCells, pnCols) || !bitIdentical(apCells, apCols) || sumCells != sumCols {
			t.Errorf("size %v: whole-column applyDirDot differs from the per-cell path", size)
		}
	}
}

// gridResidual returns ‖b − A·T‖/‖b‖ of the grid-order field T against
// the grid-order system (op, b).
func gridResidual(op *rowOperator, b, T []float64) float64 {
	at := make([]float64, len(T))
	rowApply(op, T, at)
	var num, den float64
	for c := range T {
		num += (b[c] - at[c]) * (b[c] - at[c])
		den += b[c] * b[c]
	}
	return math.Sqrt(num / den)
}

// TestEquivalenceGridOrderBoundaries: every field the solver hands out
// is in grid order. A steady field, a failed solve's best iterate, and
// transient fields from Field, Run, trace checkpoints, a resumed trace
// and TraceResult each satisfy their grid-order system to the solve's
// tolerance (a field left in column order misses by orders of
// magnitude on this non-square, non-symmetric stack), and the
// Assembled views and kernels agree with the grid-order assembly bit
// for bit.
func TestEquivalenceGridOrderBoundaries(t *testing.T) {
	p := randomProblem(t, &eqRNG{s: 0x90de}, 7, 5, 6)
	ro := assembleRows(p)
	n := p.Grid.NumCells()
	const tol = 1e-10
	for _, pc := range []Preconditioner{ZLine, Multigrid} {
		res, err := SolveSteady(p, Options{Tol: tol, Precond: pc, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r := gridResidual(ro, ro.b, res.T); r > 2*tol {
			t.Errorf("%s: Result.T has grid-order residual %g", pc, r)
		}
		// The guess goes in in grid order: a solve started from the
		// answer is within reach of it after one iteration.
		warm, err := SolveSteady(p, Options{Tol: tol, Precond: pc, Workers: 1, InitialGuess: res.T})
		if err != nil {
			t.Fatal(err)
		}
		if len(warm.Residuals) > 0 && warm.Residuals[0] > 1e-6 {
			t.Errorf("%s: a solve started from its own answer reads residual %g after one iteration", pc, warm.Residuals[0])
		}
	}
	_, err := SolveSteady(p, Options{Tol: 1e-14, MaxIter: 3, Precond: ZLine, Workers: 1})
	ce, ok := AsConvergenceError(err)
	if !ok {
		t.Fatalf("MaxIter=3 solve: %v", err)
	}
	if r := gridResidual(ro, ro.b, ce.Best); math.Abs(r-ce.BestResidual) > 1e-6*ce.BestResidual {
		t.Errorf("ConvergenceError.Best has grid-order residual %g, the solve reported %g", r, ce.BestResidual)
	}

	// Transient: each step solves (C/Δt + A)·Tⁿ⁺¹ = C/Δt·Tⁿ + b.
	const dt = 2e-4
	g := p.Grid
	capDt := make([]float64, n)
	aug := *ro
	aug.diag = make([]float64, n)
	for k := 0; k < g.NZ(); k++ {
		for j := 0; j < g.NY(); j++ {
			for i := 0; i < g.NX(); i++ {
				c := g.Index(i, j, k)
				capDt[c] = p.Cv[c] * g.Volume(i, j, k) / dt
				aug.diag[c] = ro.diag[c] + capDt[c]
			}
		}
	}
	stepResidual := func(prev, next []float64) float64 {
		rhs := make([]float64, n)
		for c := range rhs {
			rhs[c] = ro.b[c] + capDt[c]*prev[c]
		}
		return gridResidual(&aug, rhs, next)
	}
	t0 := make([]float64, n)
	for c := range t0 {
		t0[c] = 300 + float64(c%11)
	}
	tr, err := NewTransient(p, t0, Options{Tol: tol, Precond: Multigrid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	prev := t0
	for s := 0; s < 3; s++ {
		if err := tr.Step(dt); err != nil {
			t.Fatal(err)
		}
		if r := stepResidual(prev, tr.Field()); r > 2*tol {
			t.Errorf("step %d: Field has grid-order residual %g", s, r)
		}
		prev = tr.Field()
	}
	last, err := tr.Run(1, dt)
	if err != nil {
		t.Fatal(err)
	}
	if r := stepResidual(prev, last); r > 2*tol {
		t.Errorf("Run's field has grid-order residual %g", r)
	}
	if tr.MaxField() != maxOf(last) {
		t.Error("MaxField differs from the maximum of Field")
	}

	segs := []TraceSegment{{Dt: dt, Steps: 1}, {Dt: dt, Steps: 1}}
	var cps []*TraceCheckpoint
	opts := Options{Tol: tol, Precond: ZLine, Workers: 1}
	out, err := SolveTrace(p, t0, segs, opts, TraceOptions{OnCheckpoint: func(cp *TraceCheckpoint) error {
		cps = append(cps, cp)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r := stepResidual(t0, cps[0].T); r > 2*tol {
		t.Errorf("checkpoint 1 has grid-order residual %g", r)
	}
	if r := stepResidual(cps[0].T, out.T); r > 2*tol {
		t.Errorf("TraceResult.T has grid-order residual %g", r)
	}
	resumed, err := SolveTrace(p, t0, segs, opts, TraceOptions{Resume: cps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(resumed.T, out.T) {
		t.Error("trace resumed from a grid-order checkpoint differs from the full run")
	}

	a, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	gx, gy, gz := a.FaceConductances()
	if !bitIdentical(gx, ro.gxp) || !bitIdentical(gy, ro.gyp) || !bitIdentical(gz, ro.gzp) || !bitIdentical(a.BoundaryRHS(), ro.bBound) {
		t.Error("Assembled views differ from the grid-order assembly")
	}
	rhs, err := a.RHS(p.Q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(rhs, ro.b) {
		t.Error("Assembled.RHS differs from the grid-order assembly")
	}
	x := mgRandVec(&eqRNG{s: 0xa991}, n)
	y, want := make([]float64, n), make([]float64, n)
	a.Apply(x, y)
	rowApply(ro, x, want)
	if !bitIdentical(y, want) {
		t.Error("Assembled.Apply differs from the grid-order SpMV")
	}
}
