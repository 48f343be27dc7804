package solver

import (
	"encoding/binary"
	"io"
	"math"
)

// canonicalVersion tags the WriteCanonical layout. Bump it whenever
// the encoding changes shape — content-addressed caches keyed on the
// encoding must never collide across layout revisions.
//
// v2 moved the source section from the middle of the stream to the
// end, making the family encoding a strict prefix of the full one:
// both addresses now come from a single serialization and a single
// hash pass over the shared bytes (the digest state is forked before
// the source tail). The two encodings still can never be equal — the
// full stream always carries a non-empty trailing 'Q' section the
// family stream never emits.
//
// v3 changed no byte of the layout: it moved every content address
// once when Multigrid replaced ZLine as the zero-value preconditioner.
// The service key encodes the preconditioner by its number, and the
// default request kept number 0, so without the bump a default
// request would have kept its key while its answer changed.
const canonicalVersion = 3

// canonWriter buffers the canonical byte stream and latches the first
// write error, so the encoder body stays free of per-field error
// plumbing.
type canonWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (cw *canonWriter) flush() {
	if cw.err == nil && len(cw.buf) > 0 {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

func (cw *canonWriter) room(n int) {
	if len(cw.buf)+n > cap(cw.buf) {
		cw.flush()
	}
}

func (cw *canonWriter) u8(v uint8) {
	cw.room(1)
	cw.buf = append(cw.buf, v)
}

func (cw *canonWriter) u64(v uint64) {
	cw.room(8)
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, v)
}

// f64 appends a canonicalized IEEE-754 encoding: −0 collapses to +0
// and every NaN payload to one quiet NaN, so values that compare
// equal (or are equally "not a number") can never hash apart.
func (cw *canonWriter) f64(v float64) {
	if v == 0 {
		v = 0
	} else if math.IsNaN(v) {
		v = math.NaN()
	}
	cw.u64(math.Float64bits(v))
}

func (cw *canonWriter) floats(tag uint8, v []float64) {
	cw.u8(tag)
	cw.u64(uint64(len(v)))
	// Chunked fast path: reserve room once per buffer-full instead of
	// once per element. Emits byte-for-byte what per-element f64 calls
	// would (same −0 and NaN canonicalization).
	for len(v) > 0 {
		cw.room(8)
		n := (cap(cw.buf) - len(cw.buf)) / 8
		if n > len(v) {
			n = len(v)
		}
		buf := cw.buf
		for _, x := range v[:n] {
			if x == 0 {
				x = 0
			} else if math.IsNaN(x) {
				x = math.NaN()
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		cw.buf = buf
		v = v[n:]
	}
}

// WriteCanonical writes a canonical, platform-independent binary
// encoding of the problem to w: grid coordinates, per-axis
// conductivities, heat capacity, boundary conditions, interface
// resistances, and (when includeSources is true) the volumetric
// source field. Two problems produce the same byte stream iff every
// physically meaningful field is bitwise equal (after −0 → +0 and
// NaN canonicalization) — the foundation of the content-addressed
// solve cache in internal/serve. Each section is tagged and
// length-prefixed, so adjacent arrays cannot alias into each other
// and a field moved between sections always changes the stream.
//
// Excluding the sources yields the "family" encoding: two problems
// with the same family bytes differ at most in their power map, which
// is exactly when a previous solution is a good warm start. The full
// encoding is exactly the family encoding followed by the
// WriteCanonicalSources tail, so a consumer that needs both can
// serialize (and hash) the shared bytes once.
func (p *Problem) WriteCanonical(w io.Writer, includeSources bool) error {
	cw := &canonWriter{w: w, buf: make([]byte, 0, 8192)}
	cw.u8('P')
	cw.u8(canonicalVersion)
	cw.floats('x', p.Grid.Xs)
	cw.floats('y', p.Grid.Ys)
	cw.floats('z', p.Grid.Zs)
	cw.floats('K', p.KX)
	cw.floats('L', p.KY)
	cw.floats('M', p.KZ)
	cw.floats('C', p.Cv)
	cw.u8('B')
	for f := Face(0); f < numFaces; f++ {
		b := p.Bounds[f]
		cw.u8(uint8(b.Kind))
		cw.f64(b.T)
		cw.f64(b.H)
	}
	if p.ZPlaneTBR != nil {
		cw.floats('R', p.ZPlaneTBR)
	}
	if includeSources {
		cw.floats('Q', p.Q)
	}
	cw.flush()
	return cw.err
}

// WriteCanonicalSources writes only the trailing source section of
// the canonical encoding: family bytes ‖ source bytes is bitwise the
// full encoding. internal/serve uses this to derive the content and
// family addresses from one hash pass over the shared prefix — it
// forks the digest state before appending the tail, halving the
// hashing cost the cold path pays on every request.
func (p *Problem) WriteCanonicalSources(w io.Writer) error {
	cw := &canonWriter{w: w, buf: make([]byte, 0, 8192)}
	cw.floats('Q', p.Q)
	cw.flush()
	return cw.err
}
