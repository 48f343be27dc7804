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
// the service's defaults (multigrid) at tol 5e-22.
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
	if ev.Precond != solver.Multigrid {
		t.Fatalf("service default preconditioner is %s, want multigrid", ev.Precond)
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
		hotW1    = "2f482703cfdf65ddfecd33deea560edd70400ff9b6232cf3c73ce3b49b95f29e"
		hotW3    = "043a3b59388b48cd4dc9835824bab637211207d8e6ec84ada9b7226df82a3adc"
		transW1  = "98b8925d5bdb7bb70f48b07a6892eeba1b3d04c1ea86d92dd76205e929c0a652"
		failBest = "cef769a052797aa7d620c26e48c8c9545f04634eb8205fc3d8e255d8019ee322"
		mgW1     = "b52cf538a8d9f99816f82d40d0984bdf2c70235405fd071b0f78c564bcba68ca"
		mgW3     = "927caf6a26be5481b6bb7cd5581861886ba7ae478ec2649326f215c5805b565d"
		mgF32    = "a78d96098964fd9941d29214739b9609f9890dacd9b7bd3a2dd1be72e6d577fb"
		zlineF32 = "080c2ec629373ac5e3f008bc4ab6caa22d7a112cc273b928b9fbf4bd30699451"
	)
	// The service default (multigrid, f64) and every other scheme and
	// tier on the same problem.
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

	o := solver.Options{Tol: ev.Tol, MaxIter: 5, Precond: solver.ZLine, Workers: 1}
	_, err = solver.SolveSteady(p, o)
	ce, ok := solver.AsConvergenceError(err)
	if !ok || ce.Reason != solver.ReasonMaxIter {
		t.Fatalf("MaxIter=5 solve: err %v, want a max-iteration ConvergenceError", err)
	}
	check("failed solve best iterate", failBest, ce.Best)
}
