package serve

// Golden harness: canonical request/response JSON pinned under
// testdata/. Regenerate intentionally with
//
//	go test ./internal/serve/ -run Golden -update
//
// Responses are normalized before comparison — wall_ns and the
// iteration count are zeroed and every float is rounded to 9
// significant digits — so the goldens pin schema and values without
// being brittle against timer noise or last-bit FMA differences
// across architectures. The content address is asserted to be 64-char
// hex, then masked: bit-exactness of the hash input is the property
// tests' job, not the goldens'.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"thermalscaffold/internal/specio"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/serve/ -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenRequest is the fixed input every golden derives from.
func goldenRequest() specio.EvalRequest {
	req := specio.EvalRequest{Stack: testStack(2, 8, 20)}
	req.PowerBlocks = []specio.PowerBlock{
		{X0: 5, Y0: 1, X1: 8, Y1: 3, DensityWPerCm2: 25},
		{X0: 0, Y0: 0, X1: 4, Y1: 4, DensityWPerCm2: 10},
	}
	return req
}

// TestGoldenRequestNormalization pins the canonical form: defaults
// explicit, blocks rasterized.
func TestGoldenRequestNormalization(t *testing.T) {
	norm, err := goldenRequest().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := specio.MarshalEval(norm)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "request_normalized.golden.json", append(raw, '\n'))
}

// TestEquivalencePinnedKey pins the golden request's content and
// family addresses. The goldens mask the key, so only this test sees
// a change to the canonical encoding or to the integer values it
// hashes (such as solver.Preconditioner's); a recorded address may
// change only together with a deliberate change of the encoding.
func TestEquivalencePinnedKey(t *testing.T) {
	const (
		wantKey    = "78df1d1cd84d205a613c94a9490db509fa36b0d1a8572d0ed5aec3a710609cf3"
		wantFamily = "caf0cefa6e4aaf0247746795b7ef404a1ba9cf93d1d587988db483d495abee4c"
	)
	key, family := keyOf(t, goldenRequest())
	if key != wantKey {
		t.Errorf("content address %s, want %s", key, wantKey)
	}
	if family != wantFamily {
		t.Errorf("family address %s, want %s", family, wantFamily)
	}
}

var hexKeyRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// normalizeResponse rounds floats, zeroes timing/iteration counts,
// and masks the content address, returning stable indented JSON.
func normalizeResponse(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, raw)
	}
	if key, ok := v["key"].(string); ok && key != "" {
		if !hexKeyRE.MatchString(key) {
			t.Fatalf("key %q is not 64-char hex", key)
		}
		v["key"] = "<64-hex content address>"
	}
	if _, ok := v["wall_ns"]; ok {
		v["wall_ns"] = 0
	}
	if _, ok := v["iterations"]; ok {
		v["iterations"] = 0
	}
	var walk func(any) any
	walk = func(x any) any {
		switch x := x.(type) {
		case map[string]any:
			for k, e := range x {
				x[k] = walk(e)
			}
			return x
		case []any:
			for i, e := range x {
				x[i] = walk(e)
			}
			return x
		case float64:
			r, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 9, 64), 64)
			if err != nil {
				t.Fatal(err)
			}
			return r
		default:
			return x
		}
	}
	walk(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func goldenServe(t *testing.T, req specio.EvalRequest) (int, []byte) {
	t.Helper()
	s := New(Config{SolverWorkers: 1})
	defer s.Shutdown(context.Background())
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(raw)))
	return rec.Code, rec.Body.Bytes()
}

// TestGoldenSteadyResponse pins the steady response schema and its
// (rounded) temperatures at SolverWorkers=1.
func TestGoldenSteadyResponse(t *testing.T) {
	code, body := goldenServe(t, goldenRequest())
	if code != 200 {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	goldenCompare(t, "response_steady.golden.json", normalizeResponse(t, body))
}

// TestGoldenTransientResponse pins the transient response — notably
// residual: null (the non-finite→null marshaling convention).
func TestGoldenTransientResponse(t *testing.T) {
	req := goldenRequest()
	req.Transient = &specio.TransientJSON{DtS: 1e-4, Steps: 3}
	code, body := goldenServe(t, req)
	if code != 200 {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"residual": null`) {
		t.Fatalf("transient residual did not marshal as null:\n%s", body)
	}
	goldenCompare(t, "response_transient.golden.json", normalizeResponse(t, body))
}

// TestGoldenRCRequestNormalization pins the canonical form of an
// rc-tier request: the fidelity field survives normalization
// verbatim alongside the usual defaults.
func TestGoldenRCRequestNormalization(t *testing.T) {
	req := goldenRequest()
	req.Fidelity = specio.FidelityRC
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := specio.MarshalEval(norm)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "request_rc_normalized.golden.json", append(raw, '\n'))
}

// TestGoldenRCResponse pins the reduced-order response: the
// fidelity:"rc" marker, the certified bound_k, iterations 0 (direct
// solve), and the same tier-profile schema as the full tier.
func TestGoldenRCResponse(t *testing.T) {
	req := goldenRequest()
	req.Fidelity = specio.FidelityRC
	code, body := goldenServe(t, req)
	if code != 200 {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"fidelity": "rc"`) {
		t.Fatalf("rc response missing fidelity marker:\n%s", body)
	}
	if !strings.Contains(string(body), `"bound_k":`) {
		t.Fatalf("rc response missing certified bound:\n%s", body)
	}
	goldenCompare(t, "response_rc.golden.json", normalizeResponse(t, body))
}

// TestGoldenErrorResponse pins the 400 shape for an out-of-grid power
// block.
func TestGoldenErrorResponse(t *testing.T) {
	req := goldenRequest()
	req.PowerBlocks[0].X1 = 99
	code, body := goldenServe(t, req)
	if code != 400 {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	goldenCompare(t, "response_error.golden.json", normalizeResponse(t, body))
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if code == 0 && *update {
		fmt.Println("golden files updated under internal/serve/testdata/")
	}
	os.Exit(code)
}
