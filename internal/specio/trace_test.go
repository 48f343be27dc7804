package specio

// Trace schema suite: normalization canonical form + idempotence,
// hostile-request validation, exact state round-trip, and segment
// source semantics against the single-shot eval path. FuzzTraceRequest
// (run by `make fuzz-short`) hammers the decoder/normalizer with
// hostile segment counts, degenerate dt, and corrupt resume state.

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func traceStack() StackJSON {
	return StackJSON{
		DieWUm: 200, DieHUm: 200,
		Tiers: 2, NX: 8, NY: 8,
		UniformPower: 20,
		BEOL:         "scaffolded",
		PillarCover:  0.1,
		Sink:         "twophase",
	}
}

func validTrace() TraceRequest {
	idle := 0.25
	return TraceRequest{
		Stack:  traceStack(),
		Solver: SolverJSON{Precond: "zline"},
		Segments: []TraceSegmentJSON{
			{DtS: 1e-4, Steps: 3},
			{DtS: 1e-4, Steps: 2, PowerScale: &idle},
			{DtS: 5e-5, Steps: 2, PowerBlocks: []PowerBlock{{X0: 1, Y0: 1, X1: 4, Y1: 4, DensityWPerCm2: 30}}},
		},
	}
}

// TestTraceNormalizeCanonical: defaults become explicit (solver
// controls via the shared eval normalization, power_scale pinned to
// 1) and Normalize is idempotent.
func TestTraceNormalizeCanonical(t *testing.T) {
	norm, err := validTrace().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Solver.Tol == 0 || norm.Solver.MaxIter == 0 {
		t.Fatalf("solver defaults not explicit: %+v", norm.Solver)
	}
	for i, seg := range norm.Segments {
		if seg.PowerScale == nil {
			t.Fatalf("segment %d power_scale not canonicalized", i)
		}
	}
	if *norm.Segments[0].PowerScale != 1 || *norm.Segments[1].PowerScale != 0.25 {
		t.Fatalf("power_scale canonical values wrong: %v %v", *norm.Segments[0].PowerScale, *norm.Segments[1].PowerScale)
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, again) {
		t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", norm, again)
	}
}

// TestTraceNormalizeRejects covers the hostile-request surface.
func TestTraceNormalizeRejects(t *testing.T) {
	mut := func(f func(*TraceRequest)) TraceRequest {
		r := validTrace()
		f(&r)
		return r
	}
	neg := -1.0
	cases := []struct {
		name string
		req  TraceRequest
		want string
	}{
		{"no-segments", mut(func(r *TraceRequest) { r.Segments = nil }), "no segments"},
		{"too-many-segments", mut(func(r *TraceRequest) {
			r.Segments = make([]TraceSegmentJSON, TraceMaxSegments+1)
			for i := range r.Segments {
				r.Segments[i] = TraceSegmentJSON{DtS: 1e-4, Steps: 1}
			}
		}), "max 256"},
		{"zero-dt", mut(func(r *TraceRequest) { r.Segments[0].DtS = 0 }), "bad dt_s"},
		{"negative-dt", mut(func(r *TraceRequest) { r.Segments[1].DtS = -1 }), "bad dt_s"},
		{"nan-dt", mut(func(r *TraceRequest) { r.Segments[0].DtS = math.NaN() }), "bad dt_s"},
		{"zero-steps", mut(func(r *TraceRequest) { r.Segments[0].Steps = 0 }), "bad steps"},
		{"negative-steps", mut(func(r *TraceRequest) { r.Segments[2].Steps = -5 }), "bad steps"},
		{"too-many-steps", mut(func(r *TraceRequest) { r.Segments[0].Steps = TraceMaxTotalSteps + 1 }), "total steps"},
		{"negative-scale", mut(func(r *TraceRequest) { r.Segments[0].PowerScale = &neg }), "bad power_scale"},
		{"block-outside", mut(func(r *TraceRequest) { r.Segments[2].PowerBlocks[0].X1 = 99 }), "outside grid"},
		{"block-inverted", mut(func(r *TraceRequest) {
			r.Segments[2].PowerBlocks[0].X0 = 5
			r.Segments[2].PowerBlocks[0].X1 = 2
		}), "outside grid"},
		{"block-bad-density", mut(func(r *TraceRequest) { r.Segments[2].PowerBlocks[0].DensityWPerCm2 = math.Inf(1) }), "bad density"},
		{"resume-out-of-range", mut(func(r *TraceRequest) {
			r.ResumeFrom = &TraceCheckpointJSON{Segment: 9, State: "AA=="}
		}), "outside schedule"},
		{"resume-no-state", mut(func(r *TraceRequest) {
			r.ResumeFrom = &TraceCheckpointJSON{Segment: 1}
		}), "requires state"},
		{"resume-bad-time", mut(func(r *TraceRequest) {
			r.ResumeFrom = &TraceCheckpointJSON{Segment: 1, TimeS: -3, State: "AA=="}
		}), "bad time_s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestTraceStateRoundTrip: encode→decode is exact for adversarial bit
// patterns (denormals, −0, huge magnitudes).
func TestTraceStateRoundTrip(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1.5e-310, 373.15, 1e300, -2.7e-18, math.Pi}
	out, err := DecodeTraceState(EncodeTraceState(in), len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
			t.Fatalf("cell %d: %x -> %x", i, math.Float64bits(in[i]), math.Float64bits(out[i]))
		}
	}
	if _, err := DecodeTraceState("!!!", 1); err == nil {
		t.Fatal("bad base64 accepted")
	}
	if _, err := DecodeTraceState(EncodeTraceState(in), len(in)+1); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := DecodeTraceState(EncodeTraceState([]float64{math.NaN()}), 1); err == nil {
		t.Fatal("NaN state accepted")
	}
}

// TestBuildTraceSegmentSources pins segment power semantics: a
// default segment carries the base problem's exact sources, scale
// rescales the device-layer sources, blocks add on top, and every
// segment's sources equal a full BuildEval of its request.
func TestBuildTraceSegmentSources(t *testing.T) {
	te, err := BuildTrace(validTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(te.Segments) != 3 {
		t.Fatalf("got %d segments", len(te.Segments))
	}
	baseQ := te.Base.Problem.Q
	seg0 := te.Segments[0].Q
	for c := range baseQ {
		if math.Float64bits(seg0[c]) != math.Float64bits(baseQ[c]) {
			t.Fatalf("default segment sources differ from base at cell %d", c)
		}
	}
	var sum0, sum1, sum2 float64
	for c := range baseQ {
		sum0 += seg0[c]
		sum1 += te.Segments[1].Q[c]
		sum2 += te.Segments[2].Q[c]
	}
	if math.Abs(sum1-0.25*sum0) > 1e-9*sum0 {
		t.Fatalf("scaled segment total %g, want %g", sum1, 0.25*sum0)
	}
	if sum2 <= sum0 {
		t.Fatalf("block segment total %g did not exceed base %g", sum2, sum0)
	}

	// Segment sources are painted onto the base geometry; they must be
	// bitwise what a full build of the segment's own request gives.
	for _, req := range []TraceRequest{validTrace(), ExampleTrace()} {
		te, err := BuildTrace(req)
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range te.Req.Segments {
			want := te.Base.Problem.Q
			if derived, ok := segmentRequest(te.Base, te.Req.Stack, seg); ok {
				dev, err := BuildEval(derived)
				if err != nil {
					t.Fatal(err)
				}
				want = dev.Problem.Q
			}
			got := te.Segments[i].Q
			if len(got) != len(want) {
				t.Fatalf("segment %d: %d sources, want %d", i, len(got), len(want))
			}
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("segment %d: sources differ from BuildEval at cell %d", i, c)
				}
			}
		}
	}
}

// TestBuildTraceResume decodes resume state into a solver checkpoint.
func TestBuildTraceResume(t *testing.T) {
	req := validTrace()
	te, err := BuildTrace(req)
	if err != nil {
		t.Fatal(err)
	}
	n := te.Base.Problem.Grid.NumCells()
	field := make([]float64, n)
	for i := range field {
		field[i] = 300 + float64(i)*1e-3
	}
	req.ResumeFrom = &TraceCheckpointJSON{Segment: 1, TimeS: 3e-4, State: EncodeTraceState(field)}
	te2, err := BuildTrace(req)
	if err != nil {
		t.Fatal(err)
	}
	if te2.Resume == nil || te2.Resume.Segment != 1 || te2.Resume.Time != 3e-4 {
		t.Fatalf("resume checkpoint not built: %+v", te2.Resume)
	}
	for i := range field {
		if math.Float64bits(te2.Resume.T[i]) != math.Float64bits(field[i]) {
			t.Fatalf("resume state differs at cell %d", i)
		}
	}
	// Wrong-sized state is a 400-shaped error, not a panic.
	req.ResumeFrom.State = EncodeTraceState(field[:4])
	if _, err := BuildTrace(req); err == nil || !strings.Contains(err.Error(), "state has") {
		t.Fatalf("got %v, want state length error", err)
	}
}

// FuzzTraceRequest hammers the decode→normalize→build pipeline with
// hostile JSON: it must never panic, normalization must be
// idempotent, and anything that builds must have consistent segment
// counts.
func FuzzTraceRequest(f *testing.F) {
	seed := func(r TraceRequest) {
		raw, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(validTrace())
	seed(ExampleTrace())
	hostile := validTrace()
	hostile.Segments[0].DtS = -1
	seed(hostile)
	overlap := validTrace()
	overlap.Segments[2].PowerBlocks = []PowerBlock{
		{X0: 0, Y0: 0, X1: 8, Y1: 8, DensityWPerCm2: 10},
		{X0: 2, Y0: 2, X1: 6, Y1: 6, DensityWPerCm2: 90},
	}
	seed(overlap)
	resume := validTrace()
	resume.ResumeFrom = &TraceCheckpointJSON{Segment: 1, TimeS: 1e-4, State: "not-base64!"}
	seed(resume)
	many := validTrace()
	many.Segments = make([]TraceSegmentJSON, 300)
	for i := range many.Segments {
		many.Segments[i] = TraceSegmentJSON{DtS: 1e-9, Steps: 1 << 20}
	}
	seed(many)
	f.Add([]byte(`{"segments":[{"dt_s":1e308,"steps":9999999999}]}`))
	f.Add([]byte(`{"stack":{"nx":-1,"ny":0},"segments":[{"dt_s":1,"steps":1}]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := ParseTrace(raw)
		if err != nil {
			return
		}
		norm, err := req.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized form failed to re-normalize: %v", err)
		}
		if len(again.Segments) != len(norm.Segments) {
			t.Fatalf("re-normalize changed segment count %d -> %d", len(norm.Segments), len(again.Segments))
		}
		te, err := BuildTrace(norm)
		if err != nil {
			return
		}
		if len(te.Segments) != len(norm.Segments) {
			t.Fatalf("built %d segments from %d", len(te.Segments), len(norm.Segments))
		}
	})
}
