package qserve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"

	"snapdyn/internal/edge"
)

// canonicalBody renders updates in the form the benchmark's clients
// send: u, v, t on every update, an explicit op only on deletes.
func canonicalBody(updates int, n uint32) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	x := uint64(7)
	for i := 0; i < updates; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		x = x*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(&buf, `{"u":%d,"v":%d,"t":%d`, uint32(x>>40)%n, uint32(x>>8)%n, uint32(x>>20)%100000)
		if i%8 == 7 {
			buf.WriteString(`,"op":"delete"`)
		}
		buf.WriteByte('}')
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// FuzzDecodeUpdates holds the ingest decoder (canonical scanner, then
// the reflective fallback) to decodeReference, the reflective decoder
// alone: the same update count, the same mirrored batch, and the same
// error, by status and by text, for any body, read whole or cut off by
// a size limit, with and without mirroring.
func FuzzDecodeUpdates(f *testing.F) {
	for _, s := range []string{
		`[{"u":1,"v":2,"t":3}]`, `[]`, " [ ] \n", `[{}]`,
		`[{"op":"del","t":4294967295,"v":0,"u":15},{"u":3,"v":3,"op":"ins"}]`,
		`[{"u":1,"v":2,"u":3}]`, `[{"u":1,"v":2,"op":"delete","op":"insert"}]`,
		`[{"U":1,"v":2}]`, `[{"u":1,"v":2}]`, `[{"u":1,"v":2,"w":3}]`,
		`[null]`, `[{"u":1,"v":2},null]`, `[{"u":null,"v":2}]`, `null`, ``,
		`[{"u":1e2,"v":2}]`, `[{"u":-0,"v":2}]`, `[{"u":01,"v":2}]`, `[{"u":1.0,"v":2}]`,
		`[{"u":4294967296,"v":2}]`, `[{"u":99999999999,"v":2}]`,
		`[{"u":1,"v":2,"op":"delete"}]`, `[{"u":1,"v":2,"op":"ins\"ert"}]`,
		`[{"u":1,"v":2,"op":"dél"}]`, "[{\"u\":1,\"v\":2,\"op\":\"\xff\"}]",
		`[{"u":1,"v":2,"op":"upsert"}]`, `[{"u":1,"v":2,"op":5}]`,
		`[{"u":99,"v":2},{"u":1,"v":2]`, `[{"u":1,"v":2,"op":"x"},{"u":1 "v":2}]`,
		`[{"u":99,"v":2},{"U":1}]`, `[{"u":1,"v":2,"op":"x"},{"u":99}]`,
		`[{"u":1,"v":2}] {"junk": tru`, `[{"u":1,"v":2}][]`, `[{"u":1,"v":2},]`,
		`[{"u":1,"v":2,}]`, `[{"u":1 , "v" : 2 }]`, `{"u":1,"v":2}`, `[1]`,
	} {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s), uint8(len(s)/2))
	}
	f.Add(canonicalBody(64, 16), uint8(0))
	f.Add(canonicalBody(64, 16), uint8(200))
	const n = 16
	var b ingestBuf // reused across inputs, as the pool reuses it
	f.Fuzz(func(t *testing.T, body []byte, limit uint8) {
		open := func() io.Reader {
			r := io.NopCloser(bytes.NewReader(body))
			if limit == 0 {
				return r
			}
			return http.MaxBytesReader(nil, r, int64(limit))
		}
		for _, mirror := range []bool{false, true} {
			var want []edge.Update
			wantN, wantErr := decodeReference(open(), n, mirror, &want)
			gotN, gotErr := decodeIngest(open(), n, mirror, &b)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%q (limit %d, mirror %v): error %v, reference %v", body, limit, mirror, gotErr, wantErr)
			}
			if wantErr != nil {
				gotCode, gotSlug := errStatus(gotErr)
				wantCode, wantSlug := errStatus(wantErr)
				if gotCode != wantCode || gotSlug != wantSlug {
					t.Fatalf("%q (limit %d): status %d %s, reference %d %s", body, limit, gotCode, gotSlug, wantCode, wantSlug)
				}
				continue
			}
			if gotN != wantN || !slices.Equal(b.batch, want) {
				t.Fatalf("%q (mirror %v): %d updates %v, reference %d updates %v", body, mirror, gotN, b.batch, wantN, want)
			}
		}
	})
}

// TestIngestDecodeAllocs: decoding a canonical 1024-update body into
// the mirrored batch allocates nothing once the request's pooled
// buffers have grown to fit it.
func TestIngestDecodeAllocs(t *testing.T) {
	const n = 1 << 20
	body := canonicalBody(1024, n)
	var b ingestBuf
	r := bytes.NewReader(body)
	decode := func() {
		r.Reset(body)
		if got, err := decodeIngest(r, n, true, &b); err != nil || got != 1024 {
			t.Fatalf("decoded %d updates, err %v", got, err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("canonical decode: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkIngestDecode decodes a canonical 1024-update body into the
// mirrored batch: the served path, and the reflective reference it
// falls back to for any other JSON.
func BenchmarkIngestDecode(b *testing.B) {
	const n = 1 << 20
	body := canonicalBody(1024, n)
	r := bytes.NewReader(body)
	b.Run("canonical", func(b *testing.B) {
		var buf ingestBuf
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			r.Reset(body)
			if _, err := decodeIngest(r, n, true, &buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		var batch []edge.Update
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			r.Reset(body)
			if _, err := decodeReference(r, n, true, &batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
