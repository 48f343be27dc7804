package serve

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"net/http"
	"sync"

	"thermalscaffold/internal/specio"
)

// Content addressing. Key hashes everything that determines the
// numerical answer of an evaluation — the assembled solver problem
// (mesh, materials, power map, boundary conditions, interface
// resistances) plus the result-relevant solver options and the
// steady/transient mode — through the canonical encoding of
// solver.Problem.WriteCanonical. Scheduling-only knobs (timeout,
// server worker counts) are deliberately excluded: they change when
// an answer arrives, never what it is.
//
// FamilyKey hashes the same stream with the source field left out.
// Two evaluations sharing a family differ at most in their power map,
// so they share one operator (optimization loops mutate power, not
// geometry): the family address keys the solver's assembly cache, the
// family-prefix memo, the rc model cache, and the batching window.
//
// SHA-256 makes accidental collisions a non-issue (the cache would
// serve a wrong answer on collision, so a short rolling hash is not
// acceptable); keys render as 64 hex characters.

// Key returns the canonical content address of an evaluation.
func Key(ev *specio.Eval) (string, error) {
	return hashEval(ev, true)
}

// FamilyKey returns the family address: Key with the power/source
// field excluded.
func FamilyKey(ev *specio.Eval) (string, error) {
	return hashEval(ev, false)
}

// digestState snapshots a running hash's internal state, or nil if
// the implementation cannot round-trip it.
func digestState(h hash.Hash) []byte {
	m, ok := h.(encoding.BinaryMarshaler)
	if !ok {
		return nil
	}
	state, err := m.MarshalBinary()
	if err != nil {
		return nil
	}
	return state
}

// restoreDigest rebuilds a SHA-256 digest from a digestState snapshot.
func restoreDigest(state []byte) hash.Hash {
	c := sha256.New()
	u, ok := c.(encoding.BinaryUnmarshaler)
	if !ok || u.UnmarshalBinary(state) != nil {
		return nil
	}
	return c
}

// famPrefixMemo caches, per family, the SHA-256 state of the family
// prefix and the first built evaluation. Both reuses rest on the same
// fact: everything except the canonical source tail is a deterministic
// function of the normalized request minus its power fields (power
// reaches only the source section — stack.Spec.PaintSources writes it
// to Q and nothing else). A request whose power-free form was seen
// before therefore skips problem assembly (specio.Eval.CloneForPower
// shares the cached geometry and repaints only the sources) and skips
// re-serializing and re-hashing the mesh and material arrays — the two
// dominant per-request overheads of the serving cold path — paying
// only for the source tail and opts block. Exactly the window-batching
// workload: a cold-miss storm over one family.
//
// A memo hit yields bitwise the addresses and problem bytes of the
// uncached path (pinned by TestFamPrefixMemoMatches, TestCloneForPower
// and FuzzEvalKey); a miss or a clone failure builds with BuildEval
// and hashes the prefix afresh. Over-keying is safe by construction —
// a non-power field in the memo key only costs a miss, never a wrong
// hit.
type famPrefixMemo struct {
	mu      sync.Mutex
	cap     int
	entries map[[sha256.Size]byte]*famPrefixEntry
	order   [][sha256.Size]byte // FIFO eviction
}

type famPrefixEntry struct {
	state []byte // SHA-256 state after the family prefix
	ev    *specio.Eval
}

// famPrefixMemoCap is the default memo bound. Each entry pins one
// family's geometry arrays (the same order of memory the engine's
// assembly cache holds per family), and a serving process only ever
// sees a handful of live families at once.
const famPrefixMemoCap = 8

// romCacheCap bounds the reduced-model cache of the rc fidelity tier,
// keyed by family: one model serves every power map of a geometry.
const romCacheCap = 32

// newFamPrefixMemo returns a memo holding up to capacity families, or
// nil (every resolve builds and hashes from scratch) when capacity is
// negative or zero — a nil memo is the pre-reuse cold path.
func newFamPrefixMemo(capacity int) *famPrefixMemo {
	if capacity <= 0 {
		return nil
	}
	return &famPrefixMemo{cap: capacity, entries: make(map[[sha256.Size]byte]*famPrefixEntry)}
}

// famPrefixKeyOf hashes the power-free request: equal memo keys imply
// equal family canonical bytes. TimeoutMS is scheduling-only, so it is
// cleared too.
func famPrefixKeyOf(norm specio.EvalRequest) ([sha256.Size]byte, bool) {
	r := norm
	r.Stack.UniformPower = 0
	r.Stack.PowerMap = nil
	r.PowerBlocks = nil
	r.Solver.TimeoutMS = 0
	raw, err := json.Marshal(r)
	if err != nil {
		return [sha256.Size]byte{}, false
	}
	return sha256.Sum256(raw), true
}

// resolve builds (or clones) the evaluation for norm and returns it
// with its content and family addresses in one pass: the family
// encoding is a strict prefix of the full one (canonical layout v2),
// so the prefix is hashed once (or its digest state restored from the
// memo), the state is forked, and only the source tail and the opts
// block diverge. A nil memo never hits and never stores. On error,
// status is the HTTP status to answer with.
func (m *famPrefixMemo) resolve(norm specio.EvalRequest) (ev *specio.Eval, key, famKey string, status int, err error) {
	var mk [sha256.Size]byte
	memo := false
	if m != nil {
		mk, memo = famPrefixKeyOf(norm)
	}
	var state []byte
	if memo {
		m.mu.Lock()
		ent := m.entries[mk]
		m.mu.Unlock()
		// Clone errors (a bad power map) fall through to the full build
		// so the request gets BuildEval's own validation error; equal
		// memo keys guarantee the non-power fields already built once.
		if ent != nil {
			if clone, cerr := ent.ev.CloneForPower(norm); cerr == nil {
				ev, state = clone, ent.state
			}
		}
	}
	if ev == nil {
		if ev, err = specio.BuildEval(norm); err != nil {
			return nil, "", "", http.StatusBadRequest, err
		}
		h := sha256.New()
		if err = ev.Problem.WriteCanonical(h, false); err != nil {
			return nil, "", "", http.StatusInternalServerError, fmt.Errorf("serve: hashing problem: %w", err)
		}
		state = digestState(h)
		if memo && state != nil {
			m.mu.Lock()
			if _, dup := m.entries[mk]; !dup {
				if len(m.order) >= m.cap {
					delete(m.entries, m.order[0])
					m.order = m.order[1:]
				}
				m.entries[mk] = &famPrefixEntry{state: state, ev: ev}
				m.order = append(m.order, mk)
			}
			m.mu.Unlock()
		}
	}
	h, hFam := restoreDigest(state), restoreDigest(state)
	if h == nil || hFam == nil {
		return nil, "", "", http.StatusInternalServerError, errors.New("serve: forking the family digest failed")
	}
	if err = ev.Problem.WriteCanonicalSources(h); err != nil {
		return nil, "", "", http.StatusInternalServerError, fmt.Errorf("serve: hashing sources: %w", err)
	}
	opts := optsBlock(ev)
	h.Write(opts[:])
	hFam.Write(opts[:])
	return ev, hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(hFam.Sum(nil)), 0, nil
}

func hashEval(ev *specio.Eval, includeSources bool) (string, error) {
	h := sha256.New()
	if err := ev.Problem.WriteCanonical(h, includeSources); err != nil {
		return "", fmt.Errorf("serve: hashing problem: %w", err)
	}
	opts := optsBlock(ev)
	h.Write(opts[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}

// optsBlock encodes the result-relevant solver options and mode,
// fixed-width so fields cannot alias; appended identically to the
// content and family streams.
func optsBlock(ev *specio.Eval) [8 * 6]byte {
	var opts [8 * 6]byte
	binary.LittleEndian.PutUint64(opts[0:], uint64(ev.Precond))
	binary.LittleEndian.PutUint64(opts[8:], floatBits(ev.Tol))
	binary.LittleEndian.PutUint64(opts[16:], uint64(ev.MaxIter))
	if tr := ev.Req.Transient; tr != nil {
		binary.LittleEndian.PutUint64(opts[24:], floatBits(tr.DtS))
		binary.LittleEndian.PutUint64(opts[32:], uint64(tr.Steps))
	}
	// Flags word. Bit 0: the rc fidelity tier answers the same physical
	// problem with different numbers, so its entries must live under
	// distinct addresses — full and rc keys can never alias. Byte 1:
	// the preconditioner precision tier (an omitted precision and
	// "f64" both encode F64 = 0: they name the same solve).
	var flags uint64
	if ev.RC() {
		flags |= 1
	}
	flags |= uint64(ev.Precision) << 8
	binary.LittleEndian.PutUint64(opts[40:], flags)
	return opts
}

// floatBits canonicalizes −0 to +0 before taking IEEE-754 bits,
// matching the convention of solver.WriteCanonical.
func floatBits(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	return math.Float64bits(v)
}
