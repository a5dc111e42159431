package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"snapdyn/internal/edge"
)

// Recovery is the durable state reconstructed from a log directory:
// the newest valid checkpoint (nil when none) plus every complete
// record after it, in commit order. The caller rebuilds its store by
// applying Checkpoint.Edges as insertions and then each batch of
// Batches in order; the resulting graph reflects exactly the updates
// with LSN < LSN — a prefix of the original commit sequence that
// includes every acknowledged batch (acks happen only after the
// record's fsync returned).
type Recovery struct {
	// Checkpoint is the newest valid checkpoint, nil if none survived
	// (fresh log, or everything still lives in segments).
	Checkpoint *CheckpointInfo
	// Batches are the committed records after the checkpoint, in
	// order. Batches[i] replays the updates [BaseLSNs[i],
	// BaseLSNs[i]+len(Batches[i])).
	Batches  [][]edge.Update
	BaseLSNs []uint64
	// LSN is the update count recovered through: Checkpoint coverage
	// plus every replayed batch.
	LSN uint64
	// Torn reports that a partially persisted final record (or a
	// header-less final segment) was found and truncated — the
	// expected crash shape, not an error.
	Torn bool
}

// CheckpointLSN returns the recovered checkpoint's LSN, 0 if none.
func (r *Recovery) CheckpointLSN() uint64 {
	if r.Checkpoint == nil {
		return 0
	}
	return r.Checkpoint.LSN
}

// Updates returns the total updates awaiting replay across Batches.
func (r *Recovery) Updates() int {
	n := 0
	for _, b := range r.Batches {
		n += len(b)
	}
	return n
}

// recover_ scans dir and reconstructs the durable state. It mutates
// the directory only to truncate a torn final record and delete stray
// temp files; deciding what to do with the recovered state is the
// caller's job.
func recover_(dir string) (*Recovery, error) {
	segs, ckpts, tmps, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	for _, t := range tmps {
		os.Remove(t)
	}

	rec := &Recovery{}

	// Newest checkpoint that parses wins. An invalid newer one (only
	// possible through disk corruption — installation is atomic) falls
	// back to an older one; the segment-coverage check below rejects
	// the fallback if pruning already removed the records it needs.
	for i := len(ckpts) - 1; i >= 0; i-- {
		info, err := readCheckpoint(ckptPath(dir, ckpts[i]))
		if err == nil {
			rec.Checkpoint = info
			break
		}
	}
	ckptLSN := rec.CheckpointLSN()
	rec.LSN = ckptLSN

	// Drop segments entirely covered by the checkpoint (a crashed
	// prune can leave them behind): segment i is covered when the next
	// segment starts at or below the checkpoint LSN.
	start := 0
	for start+1 < len(segs) && segs[start+1] <= ckptLSN {
		start++
	}
	segs = segs[start:]
	if len(segs) == 0 {
		return rec, nil
	}
	if segs[0] > ckptLSN {
		return nil, fmt.Errorf("%w: first segment starts at LSN %d, checkpoint covers %d — log has a gap",
			ErrCorrupt, segs[0], ckptLSN)
	}

	expect := segs[0]
	for i, base := range segs {
		last := i == len(segs)-1
		if base != expect {
			return nil, fmt.Errorf("%w: segment at LSN %d, expected %d", ErrCorrupt, base, expect)
		}
		next, torn, err := scanSegment(segPath(dir, base), base, last, ckptLSN, rec)
		if err != nil {
			return nil, err
		}
		if torn {
			rec.Torn = true
		}
		expect = next
	}
	rec.LSN = expect
	if rec.LSN < ckptLSN {
		// Segments ended before the checkpoint's coverage; the
		// checkpoint itself carries the state, so the LSN is its.
		rec.LSN = ckptLSN
	}
	return rec, nil
}

// scanSegment replays one segment's complete records into rec and
// returns the LSN after its last complete record. In the final
// segment an *incomplete* tail record — the only shape a crash can
// produce, since each record is written as one sequential buffer and
// so persists only as a prefix — is truncated in place and reported as
// torn. A complete-length frame that fails validation (CRC, framing,
// LSN) is genuine corruption everywhere, final segment included: a
// tear cannot produce it, so truncating would silently drop
// acknowledged updates. Records at or below skipLSN (covered by the
// checkpoint) are validated but not replayed.
func scanSegment(path string, base uint64, last bool, skipLSN uint64, rec *Recovery) (uint64, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) < segHdrSize {
		if !last {
			return 0, false, fmt.Errorf("%w: segment %s: truncated header", ErrCorrupt, path)
		}
		// A final segment whose header never became durable holds no
		// committed records (the header is synced before any record):
		// drop the file entirely.
		if err := os.Remove(path); err != nil {
			return 0, false, err
		}
		return base, true, nil
	}
	if string(data[:8]) != segMagic || binary.LittleEndian.Uint64(data[8:16]) != base {
		// A complete header with wrong contents cannot come from a
		// tear — the 16 bytes are written in one sequential call.
		return 0, false, fmt.Errorf("%w: segment %s: bad header", ErrCorrupt, path)
	}

	off := segHdrSize
	lsn := base
	for {
		frame, count, st := parseFrame(data, off, lsn)
		if st != frameOK {
			if off == len(data) {
				return lsn, false, nil // clean end
			}
			if st == frameInvalid || !last {
				return 0, false, fmt.Errorf("%w: segment %s: bad record at offset %d", ErrCorrupt, path, off)
			}
			if err := os.Truncate(path, int64(off)); err != nil {
				return 0, false, err
			}
			return lsn, true, nil
		}
		if lsn+uint64(count) > skipLSN {
			batch := decodeUpdates(data[off+frameHdr+recHdrSize:off+frame], count)
			if lsn < skipLSN {
				// A record straddling the checkpoint boundary cannot be
				// produced by this log (checkpoints cut at batch
				// boundaries) but is cheap to honor: replay the suffix.
				batch = batch[skipLSN-lsn:]
				rec.BaseLSNs = append(rec.BaseLSNs, skipLSN)
			} else {
				rec.BaseLSNs = append(rec.BaseLSNs, lsn)
			}
			rec.Batches = append(rec.Batches, batch)
		}
		lsn += uint64(count)
		off += frame
	}
}

// frameStatus classifies the bytes at a record offset.
type frameStatus int

const (
	frameOK frameStatus = iota
	// frameIncomplete: the record extends past EOF (or its frame
	// header does) — the shape of a torn tail, truncatable in the
	// final segment.
	frameIncomplete
	// frameInvalid: a fully present frame that fails validation — a
	// tear cannot produce this, so it is corruption wherever it sits.
	frameInvalid
)

// parseFrame validates the record at off — length, CRC, LSN, and that
// every update is an insert or a delete — returning the full frame
// length and update count.
func parseFrame(data []byte, off int, expectLSN uint64) (frame, count int, st frameStatus) {
	if off+frameHdr > len(data) {
		return 0, 0, frameIncomplete
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if payloadLen < recHdrSize || payloadLen > maxRecBytes {
		return 0, 0, frameInvalid
	}
	if off+frameHdr+payloadLen > len(data) {
		return 0, 0, frameIncomplete
	}
	payload := data[off+frameHdr : off+frameHdr+payloadLen]
	if crc32.Checksum(payload, crcTable) != crc {
		return 0, 0, frameInvalid
	}
	base := binary.LittleEndian.Uint64(payload)
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	if base != expectLSN || payloadLen != recHdrSize+updSize*n {
		return 0, 0, frameInvalid
	}
	for i := recHdrSize; i < payloadLen; i += updSize {
		if op := edge.Op(payload[i]); op != edge.Insert && op != edge.Delete {
			return 0, 0, frameInvalid
		}
	}
	return frameHdr + payloadLen, n, frameOK
}

// decodeUpdates parses count updates from payload bytes.
func decodeUpdates(p []byte, count int) []edge.Update {
	out := make([]edge.Update, count)
	for i := range out {
		b := p[i*updSize:]
		out[i] = edge.Update{
			Op: edge.Op(b[0]),
			Edge: edge.Edge{
				U: binary.LittleEndian.Uint32(b[1:]),
				V: binary.LittleEndian.Uint32(b[5:]),
				T: binary.LittleEndian.Uint32(b[9:]),
			},
		}
	}
	return out
}
