package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"snapdyn/internal/edge"
)

// FuzzParseFrame feeds arbitrary bytes to the record decoder recovery
// runs over every segment. A frame must come back incomplete or
// invalid, or parse into exactly count updates that re-encode to the
// same bytes — never panic, and never decode more updates than the
// input holds.
func FuzzParseFrame(f *testing.F) {
	valid := encodeRecord(nil, 7, mkBatch(7, 3))
	f.Add(valid, uint64(7))
	f.Add(valid[:len(valid)-1], uint64(7))
	f.Add(valid, uint64(8))
	f.Add([]byte{}, uint64(0))
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(huge, maxRecBytes+1)
	f.Add(huge, uint64(7))
	badOp := encodeRecord(nil, 0, []edge.Update{{Op: 9}})
	f.Add(badOp, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, lsn uint64) {
		frame, count, st := parseFrame(data, 0, lsn)
		switch st {
		case frameIncomplete, frameInvalid:
			return
		case frameOK:
		default:
			t.Fatalf("status %d", st)
		}
		if frame > len(data) || frame != frameHdr+recHdrSize+updSize*count {
			t.Fatalf("frame %d bytes for %d updates in %d bytes of input", frame, count, len(data))
		}
		batch := decodeUpdates(data[frameHdr+recHdrSize:frame], count)
		for _, up := range batch {
			if up.Op != edge.Insert && up.Op != edge.Delete {
				t.Fatalf("accepted update with op %d", up.Op)
			}
		}
		if again := encodeRecord(nil, lsn, batch); !bytes.Equal(again, data[:frame]) {
			t.Fatalf("frame does not re-encode to its own bytes")
		}
	})
}

// FuzzReadCheckpoint feeds arbitrary file contents to the checkpoint
// loader. Anything but a well-formed checkpoint must be refused with an
// error — never a panic, and never an allocation the header claims but
// the file does not back; an accepted one holds only edges inside its
// vertex set.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	l, _, err := Create(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(mkBatch(0, 4)); err != nil {
		f.Fatal(err)
	}
	if err := l.Checkpoint([]edge.Edge{{U: 0, V: 1, T: 2}, {U: 3, V: 2, T: 5}}, 9, 4); err != nil {
		f.Fatal(err)
	}
	l.Close()
	valid, err := os.ReadFile(ckptPath(dir, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:ckptHdrSize])
	f.Add(valid[:len(valid)-1])
	short := bytes.Clone(valid[:ckptHdrSize+2])
	binary.LittleEndian.PutUint64(short[32:], ^uint64(1)) // 2^64-2 bytes: a wrapped size check accepts this
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := readCheckpoint(path)
		if err != nil {
			return
		}
		for _, e := range info.Edges {
			if uint64(e.U) >= uint64(info.N) || uint64(e.V) >= uint64(info.N) {
				t.Fatalf("edge %v outside the checkpoint's %d vertices", e, info.N)
			}
		}
	})
}
