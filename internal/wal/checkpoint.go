package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"snapdyn/internal/edge"
	"snapdyn/internal/graphio"
)

const (
	ckptMagic   = "SNAPCKP1"
	ckptHdrSize = 48 // magic(8) + lsn(8) + epoch(8) + n(8) + payloadLen(8) + reserved(8)
	ckptFtrSize = 4  // crc32c(payload)
)

// Checkpoint durably installs a full edge dump covering every update
// with LSN below the log's current LSN, then prunes segments and older
// checkpoints the new one makes redundant. epoch and n are carried in
// the header for the recovery side: epoch lets the serving layer keep
// its published epochs monotone across restarts, n pins the vertex-set
// size the dump was taken against.
//
// The dump is written to a temp file, synced, and renamed into place —
// a crash mid-checkpoint leaves only an ignorable .tmp, never a
// half-valid checkpoint — and pruning happens strictly after the
// rename is durable, so recovery always finds either the old complete
// state or the new complete state.
//
// A checkpoint failure leaves the log fully usable: the WAL still
// covers everything, so the error is recorded in Metrics and returned
// for observability, not poisoning.
func (l *Log) Checkpoint(edges []edge.Edge, epoch uint64, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil && l.err != ErrClosed {
		return l.err
	}
	lsn := l.lsn.Load()
	err := l.writeCheckpoint(edges, lsn, epoch, n)
	l.metMu.Lock()
	if err != nil {
		l.met.CheckpointErrs++
	} else {
		l.met.Checkpoints++
	}
	l.metMu.Unlock()
	if err != nil {
		return err
	}
	l.lastCkp = lsn
	l.pruneLocked(lsn)
	return nil
}

// LastCheckpointLSN returns the LSN of the newest installed
// checkpoint (including one recovered at Create), 0 if none.
func (l *Log) LastCheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkp
}

func (l *Log) writeCheckpoint(edges []edge.Edge, lsn, epoch uint64, n int) error {
	final := ckptPath(l.dir, lsn)
	tmp := final + tmpSuffix
	f, err := l.opt.OpenFile(tmp)
	if err != nil {
		return err
	}
	payloadLen := int64(len(graphio.Magic)) + 8 + 12*int64(len(edges))
	var hdr [ckptHdrSize]byte
	copy(hdr[:8], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], lsn)
	binary.LittleEndian.PutUint64(hdr[16:], epoch)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(payloadLen))
	if err := writeFull(f, hdr[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	cw := &crcWriter{w: f}
	if err := graphio.WriteBinary(cw, edges); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if cw.n != payloadLen {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint payload %d bytes, want %d", cw.n, payloadLen)
	}
	var ftr [ckptFtrSize]byte
	binary.LittleEndian.PutUint32(ftr[:], cw.crc)
	if err := writeFull(f, ftr[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	l.opt.Hook("ckpt-written")
	if err := l.opt.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.opt.Hook("ckpt-renamed")
	return nil
}

// pruneLocked removes checkpoints older than the one just installed
// and segments whose every record is covered by it (a segment is
// covered when the next segment starts at or below the checkpoint
// LSN). Pruning is best-effort: a leftover file only wastes space and
// is ignored by recovery.
func (l *Log) pruneLocked(ckptLSN uint64) {
	segs, ckpts, tmps, err := listDir(l.dir)
	if err != nil {
		return
	}
	for _, t := range tmps {
		os.Remove(t)
	}
	for _, c := range ckpts {
		if c < ckptLSN {
			os.Remove(ckptPath(l.dir, c))
		}
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= ckptLSN && segs[i] < l.segBase {
			os.Remove(segPath(l.dir, segs[i]))
		}
	}
	syncDir(l.dir)
}

// crcWriter forwards to w while accumulating a crc32c and byte count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	c.n += int64(n)
	return n, err
}

// Checkpoint is a recovered checkpoint: the edge dump plus the header
// metadata recovery hands back to the serving layer.
type CheckpointInfo struct {
	// LSN is the update count the dump covers: replay starts here.
	LSN uint64
	// Epoch is the snapshot epoch recorded when the dump was cut; the
	// serving layer uses it to keep published epochs monotone across
	// restarts.
	Epoch uint64
	// N is the vertex-set size the dump was taken against.
	N int
	// Edges is the dumped live edge multiset.
	Edges []edge.Edge
}

// readCheckpoint parses and validates one checkpoint file. Invalid in
// any way (short, bad magic, size mismatch, CRC mismatch) returns an
// error; recovery falls back to an older checkpoint only when the
// segments still cover the gap.
func readCheckpoint(path string) (*CheckpointInfo, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [ckptHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: checkpoint header: %v", ErrCorrupt, err)
	}
	if string(hdr[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: checkpoint magic %q", ErrCorrupt, hdr[:8])
	}
	lsn := binary.LittleEndian.Uint64(hdr[8:])
	epoch := binary.LittleEndian.Uint64(hdr[16:])
	n := binary.LittleEndian.Uint64(hdr[24:])
	payloadLen := binary.LittleEndian.Uint64(hdr[32:])
	// The header's payload length must exactly account for the file:
	// checking against the real size before allocating bounds memory by
	// what is actually on disk, bogus header or not.
	if st.Size() < ckptHdrSize+ckptFtrSize || payloadLen != uint64(st.Size()-ckptHdrSize-ckptFtrSize) {
		return nil, fmt.Errorf("%w: checkpoint payload length %d does not match file size %d",
			ErrCorrupt, payloadLen, st.Size())
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("%w: checkpoint payload: %v", ErrCorrupt, err)
	}
	var ftr [ckptFtrSize]byte
	if _, err := io.ReadFull(f, ftr[:]); err != nil {
		return nil, fmt.Errorf("%w: checkpoint footer: %v", ErrCorrupt, err)
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(ftr[:]) {
		return nil, fmt.Errorf("%w: checkpoint crc mismatch", ErrCorrupt)
	}
	edges, span, err := graphio.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint edges: %v", ErrCorrupt, err)
	}
	if n > math.MaxUint32+1 || uint64(span) > n {
		return nil, fmt.Errorf("%w: checkpoint edges reach vertex %d of %d", ErrCorrupt, span-1, n)
	}
	return &CheckpointInfo{LSN: lsn, Epoch: epoch, N: int(n), Edges: edges}, nil
}
