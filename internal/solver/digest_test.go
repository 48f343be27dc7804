package solver_test

// Pinned answer digests. The equivalence suite proves paths agree
// with each other; these digests prove that none of them moved: each
// case hashes the Float64bits of a solved field and compares it with
// a SHA-256 recorded before any of the preconditioner and PCG scratch
// rewrites it guards. The service's goldens round to six digits, so
// only a test like this one catches a last-bit change. A digest may
// change only together with a documented, deliberate change of the
// arithmetic.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"thermalscaffold/internal/solver"
	"thermalscaffold/internal/specio"
)

// fieldDigest is the hex SHA-256 of the field's little-endian
// Float64bits.
func fieldDigest(field []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range field {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hotEval builds the problem of the service benchmark's hot traffic:
// a 4-tier 16×16 scaffolded stack at 10% pillar coverage, solved with
// the service's defaults (zline) at tol 5e-22.
func hotEval(t *testing.T) *specio.Eval {
	t.Helper()
	ev, err := specio.BuildEval(specio.EvalRequest{
		Stack: specio.StackJSON{
			DieWUm: 200, DieHUm: 200, Tiers: 4, NX: 16, NY: 16,
			UniformPower: 23.5, BEOL: "scaffolded", PillarCover: 0.1, Sink: "twophase",
		},
		Solver: specio.SolverJSON{Tol: 5e-22},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Precond != solver.ZLine {
		t.Fatalf("service default preconditioner is %s, want zline", ev.Precond)
	}
	return ev
}

func TestEquivalencePinnedDigests(t *testing.T) {
	ev := hotEval(t)
	p := ev.Problem
	check := func(name, want string, field []float64) {
		t.Helper()
		if got := fieldDigest(field); got != want {
			t.Errorf("%s: field digest %s, want %s", name, got, want)
		}
	}

	const (
		hotW1    = "ce88787c164eb65ce30a9d6d903ddb6eee6ca70ae32a5968222aee6a08e3d9e5"
		hotW3    = "3e7daa3702c8a77f6144fe1269de21f6243e9860b8272ebafa9dc1bfef6bcfda"
		transW1  = "f0c8ba1e2b51e71c343077c8e8e10c6e283aeed2935746c06151797bb08b036f"
		failBest = "ee0f90f1986581ec75f67eddfe83c00b882a0847a64f9751f3a8611b969fde4b"
		mgW1     = "fdf330134a34510f262e4fb54b59be8d06419eb1d667b1df6268022b7fc239a2"
		mgW3     = "a2a19e5ee8fce6c266a296f5c70b6e1078f3f1c5eb84c2b8080a4ca84a0b67bb"
		mgF32    = "42752d7a0ff357068a41fe5d5888396869cfe03875ddcbd07079c40d5fe1add0"
		zlineF32 = "99ef5d757993337566d1c52966400001d9dd97791eef1497ef0efe202d1e9d10"
		jacobiW1 = "673264c8136bbb00e8e593794e2b4861b40b76f19e01102c8dc0e3ca1f088701"
	)
	// The service default (zline, f64) and every other scheme and tier
	// on the same problem.
	for _, c := range []struct {
		precond solver.Preconditioner
		prec    solver.Precision
		workers int
		want    string
	}{
		{solver.ZLine, solver.F64, 1, hotW1},
		{solver.ZLine, solver.F64, 3, hotW3},
		{solver.Multigrid, solver.F64, 1, mgW1},
		{solver.Multigrid, solver.F64, 3, mgW3},
		{solver.Multigrid, solver.F32, 1, mgF32},
		{solver.ZLine, solver.F32, 1, zlineF32},
		{solver.Jacobi, solver.F64, 1, jacobiW1},
	} {
		name := fmt.Sprintf("hot %s %s workers=%d", c.precond, c.prec, c.workers)
		steady := solver.Options{Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: c.precond, Precision: c.prec, Workers: c.workers}
		res, err := solver.SolveSteady(p, steady)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, c.want, res.T)

		// The engine's family path (leased kern, cached preconditioner)
		// must land on the same bits, on the first and a reused lease.
		eng := solver.NewEngine(c.workers)
		for rep := 0; rep < 2; rep++ {
			o := steady
			o.Engine, o.FamilyKey = eng, "hot"
			res, err := solver.SolveSteady(p, o)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s family solve rep=%d", name, rep), c.want, res.T)
		}
		eng.Close()
	}

	tr, err := solver.NewTransient(p, ev.InitialField(), solver.Options{Tol: 1e-12, Precond: solver.ZLine, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	field, err := tr.Run(10, 1e-4)
	tr.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("zline transient", transW1, field)

	o := solver.Options{Tol: ev.Tol, MaxIter: 5, Precond: ev.Precond, Workers: 1}
	_, err = solver.SolveSteady(p, o)
	ce, ok := solver.AsConvergenceError(err)
	if !ok || ce.Reason != solver.ReasonMaxIter {
		t.Fatalf("MaxIter=5 solve: err %v, want a max-iteration ConvergenceError", err)
	}
	check("failed solve best iterate", failBest, ce.Best)
}
