package specio

// Peer wire schema unit tests: every validation branch that guards
// the cluster protocol — key shape, and address agreement between
// path, body, and response — plus the bitwise float round trip.

import (
	"math"
	"strings"
	"testing"

	"thermalscaffold/internal/telemetry"
)

func validKey(c byte) string { return strings.Repeat(string(c), 64) }

func TestValidPeerKey(t *testing.T) {
	cases := []struct {
		key string
		ok  bool
	}{
		{validKey('a'), true},
		{"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", true},
		{strings.Repeat("A", 64), false}, // uppercase
		{strings.Repeat("a", 63), false},
		{strings.Repeat("a", 65), false},
		{"", false},
		{strings.Repeat("g", 64), false}, // non-hex
	}
	for _, tc := range cases {
		if got := ValidPeerKey(tc.key); got != tc.ok {
			t.Errorf("ValidPeerKey(%q) = %v, want %v", tc.key, got, tc.ok)
		}
	}
}

func TestPeerEntryRoundTrip(t *testing.T) {
	key := validKey('a')
	// Floats whose shortest decimal form is long: the wire must carry
	// them bit for bit.
	e := &PeerCacheEntry{
		Key: key,
		Resp: EvalResponse{
			Key: key, Mode: "steady",
			PeakT: telemetry.Float(0.1 + 0.2), MeanT: telemetry.Float(math.Nextafter(373.15, 400)),
			Tiers:      []TierTemps{{Tier: 0, MaxT: telemetry.Float(1.0 / 3), MeanT: 300.5}},
			Iterations: 7, Residual: telemetry.Float(math.SmallestNonzeroFloat64),
		},
	}
	raw, err := MarshalPeerEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePeerEntry(raw, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != key || got.Resp.Key != key || got.Resp.Mode != "steady" || got.Resp.Iterations != 7 {
		t.Fatalf("round trip mangled the entry: %+v", got)
	}
	for _, pair := range [][2]telemetry.Float{
		{got.Resp.PeakT, e.Resp.PeakT}, {got.Resp.MeanT, e.Resp.MeanT},
		{got.Resp.Residual, e.Resp.Residual}, {got.Resp.Tiers[0].MaxT, e.Resp.Tiers[0].MaxT},
	} {
		if math.Float64bits(float64(pair[0])) != math.Float64bits(float64(pair[1])) {
			t.Fatalf("float %v came back as %v (must be bitwise)", pair[1], pair[0])
		}
	}
}

func TestPeerEntryValidateRejects(t *testing.T) {
	key := validKey('a')
	good := func() PeerCacheEntry {
		return PeerCacheEntry{Key: key, Resp: EvalResponse{Key: key}}
	}
	cases := []struct {
		name   string
		addr   string
		mutate func(*PeerCacheEntry)
		want   string
	}{
		{"bad address", "nope", func(e *PeerCacheEntry) {}, "bad peer cache key"},
		{"key/address mismatch", key, func(e *PeerCacheEntry) { e.Key = validKey('c') }, "does not match address"},
		{"response key mismatch", key, func(e *PeerCacheEntry) { e.Resp.Key = validKey('c') }, "response key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := good()
			tc.mutate(&e)
			if err := e.Validate(tc.addr); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestParsePeerEntryRejectsBadJSON(t *testing.T) {
	if _, err := ParsePeerEntry([]byte("{nope"), validKey('a')); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := ParsePeerEntry([]byte(`{"key": "x", "unknown_field": 1}`), validKey('a')); err == nil {
		t.Fatal("unknown field accepted")
	}
}
