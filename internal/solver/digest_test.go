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
	steady := func(workers int) solver.Options {
		return solver.Options{Tol: ev.Tol, MaxIter: ev.MaxIter, Precond: ev.Precond, Workers: workers}
	}
	check := func(name, want string, field []float64) {
		t.Helper()
		if got := fieldDigest(field); got != want {
			t.Errorf("%s: field digest %s, want %s", name, got, want)
		}
	}

	const (
		hotW1    = "99c613ba01e2c8bdc0b1fb56a2cb3b1dee92f92414ae53664025457b7b403575"
		hotW3    = "85c02241ca5caedf78303fe67efd61df3253cc379960b4439666f98c37340d59"
		transW1  = "99b529f725f3103708b0923e8a79d58f8724ac2c3d6fe81617fc006bc466cd4a"
		failBest = "0669da70209a071d4c2043d497428ab631a6430da8cf3388b178c03ba8b9b2ac"
	)
	for _, c := range []struct {
		workers int
		want    string
	}{{1, hotW1}, {3, hotW3}} {
		res, err := solver.SolveSteady(p, steady(c.workers))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("hot steady workers=%d", c.workers), c.want, res.T)

		// The engine's family path (leased kern, cached preconditioner)
		// must land on the same bits, on the first and a reused lease.
		eng := solver.NewEngine(c.workers)
		for rep := 0; rep < 2; rep++ {
			o := steady(c.workers)
			o.Engine, o.FamilyKey = eng, "hot"
			res, err := solver.SolveSteady(p, o)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("hot family solve workers=%d rep=%d", c.workers, rep), c.want, res.T)
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

	o := steady(1)
	o.MaxIter = 5
	_, err = solver.SolveSteady(p, o)
	ce, ok := solver.AsConvergenceError(err)
	if !ok || ce.Reason != solver.ReasonMaxIter {
		t.Fatalf("MaxIter=5 solve: err %v, want a max-iteration ConvergenceError", err)
	}
	check("failed solve best iterate", failBest, ce.Best)
}
