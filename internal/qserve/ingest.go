package qserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"unsafe"

	"snapdyn/internal/edge"
)

// IngestUpdate is the wire form of one structural update.
type IngestUpdate struct {
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
	T  uint32 `json:"t"`
	Op string `json:"op"` // "insert" (default) or "delete"
}

// ingestBuf is one request's decode state, pooled across requests: the
// body as read and the batch decoded from it. Reusing the batch once
// Engine.Ingest returns is safe because no ingest path retains it (the
// durable batcher copies submissions into its own queue).
type ingestBuf struct {
	body  bytes.Buffer
	batch []edge.Update
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBuf) }}

// maxPooled bounds the bytes one pooled ingestBuf keeps: a body and
// batch grown by a rare giant request (the limit is MaxIngestBody) go
// to the collector instead of staying pinned in the pool.
const maxPooled = 4 << 20

func putIngestBuf(b *ingestBuf) {
	if b.body.Cap()+cap(b.batch)*int(unsafe.Sizeof(edge.Update{})) <= maxPooled {
		ingestPool.Put(b)
	}
}

// decodeIngest reads one ingest body and decodes it into b.batch, each
// update followed by its mirror when mirror is set (self-loops single,
// stream.Mirror's order). It returns the number of updates the body
// held, or the error the handler reports. A body in the canonical form
// scanIngest takes decodes without reflection; any other body, and any
// body whose read failed, goes whole to decodeReference, so every body
// gets the reference's status and message.
func decodeIngest(r io.Reader, n uint32, mirror bool, b *ingestBuf) (int, error) {
	b.body.Reset()
	_, err := b.body.ReadFrom(r)
	if err == nil {
		var count int
		b.batch, count, err = scanIngest(b.body.Bytes(), n, mirror, b.batch[:0])
		if err != errNotCanonical {
			return count, err
		}
		err = io.EOF
	}
	// The reference reads the same bytes and then meets what the read
	// met: the end of the body, or the error that cut it off (past the
	// size limit, 413) — the stream it would have read itself.
	return decodeReference(&replay{b.body.Bytes(), err}, n, mirror, &b.batch)
}

// replay yields b, then err.
type replay struct {
	b   []byte
	err error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// decodeReference is the decoder that defines every ingest body's
// answer: encoding/json into []IngestUpdate, then each update's checks
// in order, appending the accepted batch to *batch.
func decodeReference(r io.Reader, n uint32, mirror bool, batch *[]edge.Update) (int, error) {
	var wire []IngestUpdate
	if err := decodeBody(r, &wire); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return 0, errTooLarge{fmt.Errorf("body exceeds %d bytes", tooLarge.Limit)}
		}
		return 0, badParam("body", err)
	}
	b := (*batch)[:0]
	for i, u := range wire {
		// Reject out-of-range endpoints up front: past this point the
		// store trusts its indices, so a bad vertex would corrupt or
		// crash the shared structure, not just this request.
		if u.U >= n || u.V >= n {
			return 0, errRange(i, n, u.U, u.V)
		}
		op, ok := parseOp(u.Op)
		if !ok {
			return 0, errOp(u.Op)
		}
		b = appendUpdate(b, u.U, u.V, u.T, op, mirror)
	}
	*batch = b
	return len(wire), nil
}

// decodeBody decodes the one JSON array of updates an ingest body must
// hold: a null body, or anything but whitespace after the array, is
// refused rather than half-read.
func decodeBody(body io.Reader, wire *[]IngestUpdate) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(wire); err != nil {
		return err
	}
	if *wire == nil {
		return errors.New("want a JSON array of updates, got null")
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the update array")
		}
		return err
	}
	return nil
}

func parseOp(op string) (edge.Op, bool) {
	switch op {
	case "", "insert", "ins":
		return edge.Insert, true
	case "delete", "del":
		return edge.Delete, true
	}
	return 0, false
}

func errRange(i int, n, u, v uint32) error {
	return badParam("updates", fmt.Errorf("update %d: vertex out of range [0,%d): %d->%d", i, n, u, v))
}

func errOp(op string) error { return badParam("op", fmt.Errorf("unknown op %q", op)) }

func appendUpdate(batch []edge.Update, u, v, t uint32, op edge.Op, mirror bool) []edge.Update {
	batch = append(batch, edge.Update{Edge: edge.Edge{U: u, V: v, T: t}, Op: op})
	if mirror && u != v {
		batch = append(batch, edge.Update{Edge: edge.Edge{U: v, V: u, T: t}, Op: op})
	}
	return batch
}

// errNotCanonical is scanIngest declining a body.
var errNotCanonical = errors.New("not the canonical ingest form")

// scanIngest decodes an ingest body in its canonical form, the JSON
// clients write: one array of objects whose keys are exactly "u", "v",
// "t" and "op" (in any order, the last duplicate winning as in
// encoding/json), unsigned decimal integers up to MaxUint32 with no
// sign, fraction, exponent or leading zero, op strings of ASCII without
// escapes or control characters, and JSON whitespace. It appends to
// batch what decodeReference would and fails with the same checks and
// messages. A range or op error is returned only once the whole body
// has scanned, because in the reference a later syntax error wins. Any
// other body returns errNotCanonical.
func scanIngest(body []byte, n uint32, mirror bool, batch []edge.Update) ([]edge.Update, int, error) {
	s := scanner{b: body}
	var bad error
	count := 0
	if !s.next('[') {
		return batch, 0, errNotCanonical
	}
	if !s.next(']') {
		for {
			u, v, t, name, ok := s.object()
			if !ok {
				return batch, 0, errNotCanonical
			}
			if bad == nil {
				op, known := parseOp(string(name))
				switch {
				case u >= n || v >= n:
					bad = errRange(count, n, u, v)
				case !known:
					bad = errOp(string(name))
				default:
					batch = appendUpdate(batch, u, v, t, op, mirror)
				}
			}
			count++
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return batch, 0, errNotCanonical
			}
		}
	}
	if s.space(); s.i != len(s.b) {
		return batch, 0, errNotCanonical
	}
	if bad != nil {
		return batch, 0, bad
	}
	return batch, count, nil
}

// scanner is scanIngest's cursor; each method reports false where the
// body leaves the canonical form.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans one update object; a key it omits keeps its zero value.
func (s *scanner) object() (u, v, t uint32, op []byte, ok bool) {
	if !s.next('{') {
		return 0, 0, 0, nil, false
	}
	if s.next('}') {
		return 0, 0, 0, nil, true
	}
	for {
		if !s.next('"') {
			return 0, 0, 0, nil, false
		}
		rest := s.b[s.i:]
		var key byte
		switch {
		case len(rest) >= 2 && rest[1] == '"' && (rest[0] == 'u' || rest[0] == 'v' || rest[0] == 't'):
			key, s.i = rest[0], s.i+2
		case len(rest) >= 3 && rest[0] == 'o' && rest[1] == 'p' && rest[2] == '"':
			key, s.i = 'o', s.i+3
		default:
			return 0, 0, 0, nil, false
		}
		if !s.next(':') {
			return 0, 0, 0, nil, false
		}
		switch key {
		case 'u':
			u, ok = s.uint32()
		case 'v':
			v, ok = s.uint32()
		case 't':
			t, ok = s.uint32()
		default:
			op, ok = s.str()
		}
		if !ok {
			return 0, 0, 0, nil, false
		}
		if s.next('}') {
			return u, v, t, op, true
		}
		if !s.next(',') {
			return 0, 0, 0, nil, false
		}
	}
}

// uint32 scans an unsigned decimal literal. A leading zero ends the
// literal at "0", so "01" fails at the caller's next delimiter, as does
// an eleventh digit, a fraction or an exponent.
func (s *scanner) uint32() (uint32, bool) {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
		return 0, true
	}
	i, x := s.i, uint64(0)
	for i < len(s.b) && i-s.i < 10 && '0' <= s.b[i] && s.b[i] <= '9' {
		x = x*10 + uint64(s.b[i]-'0')
		i++
	}
	if i == s.i || x > math.MaxUint32 {
		return 0, false
	}
	s.i = i
	return uint32(x), true
}

// str scans a string literal of ASCII without escapes or control
// characters, the only strings whose decoded value is their bytes.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for i := s.i; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			str := s.b[s.i:i]
			s.i = i + 1
			return str, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}
