package wal

import (
	"fmt"
	"io"

	"repro/internal/event"
	"repro/internal/faultfs"
)

// Crash recovery. A producer that dies mid-run leaves its log file with a
// torn tail: a frame cut by the crash, or garbage past the last fsync'd
// sync point. Recover scans the file for its longest valid prefix (see
// event.ScanRecover), truncates the tail away so the file becomes a valid
// stream every reader accepts, and reports exactly what was kept and
// dropped. The recovered prefix is a real execution history of the crashed
// process — the checker's verdict over it is a verdict about the run up to
// the crash, which is what the soak harness asserts.

// CrashFile is what Recover needs from a file: read it all, then cut the
// torn tail. *os.File and faultfs.File satisfy it.
type CrashFile interface {
	io.Reader
	Truncate(size int64) error
}

// RecoveryReport describes the outcome of one recovery.
type RecoveryReport struct {
	// FormatVersion is the stream's format version (0 when the file had no
	// readable VYRDLOG header).
	FormatVersion int `json:"format_version"`
	// FramesKept counts the valid frames retained (entries + markers).
	FramesKept int `json:"frames_kept"`
	// SyncMarkers counts the sync markers within the kept prefix.
	SyncMarkers int `json:"sync_markers"`
	// LastSeq is the sequence number of the last recovered entry.
	LastSeq int64 `json:"last_seq"`
	// BytesKept is the length of the valid prefix.
	BytesKept int64 `json:"bytes_kept"`
	// BytesDropped is how much torn tail was discarded.
	BytesDropped int64 `json:"bytes_dropped"`
	// FirstBadOffset is the offset of the first invalid byte (-1 when the
	// file was already a fully valid stream).
	FirstBadOffset int64 `json:"first_bad_offset"`
	// Truncated reports whether the file was modified.
	Truncated bool `json:"truncated"`
}

// Clean reports whether the log needed no repair.
func (r RecoveryReport) Clean() bool { return r.FirstBadOffset < 0 }

func (r RecoveryReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("clean: v%d, %d frames (%d markers), last seq %d, %d bytes",
			r.FormatVersion, r.FramesKept, r.SyncMarkers, r.LastSeq, r.BytesKept)
	}
	return fmt.Sprintf("recovered: v%d, kept %d frames (%d markers) / %d bytes through seq %d, dropped %d bytes at offset %d",
		r.FormatVersion, r.FramesKept, r.SyncMarkers, r.BytesKept, r.LastSeq, r.BytesDropped, r.FirstBadOffset)
}

// Recover reads f in full, finds its longest valid prefix, and truncates
// the file to it. It returns the recovered entries alongside the report.
//
// A version-1 stream (the retired gob encoding) is refused without
// modification, with the same error every reader gives it: an artifact of
// an earlier release must not be destroyed by pointing recovery at it. Any
// other input — including one with no recognizable header at all — is
// truncated to its valid prefix, which may be empty; recovery's contract is
// that afterwards the file is a stream ReadFile accepts.
func Recover(f CrashFile) ([]event.Entry, RecoveryReport, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("wal: recover: read: %w", err)
	}
	entries, rep, err := scanRecover(data)
	if err != nil {
		return nil, rep, err
	}
	if !rep.Clean() {
		if terr := f.Truncate(rep.BytesKept); terr != nil {
			return entries, rep, fmt.Errorf("wal: recover: truncate torn tail: %w", terr)
		}
		rep.Truncated = true
	}
	return entries, rep, nil
}

// RecoverReader scans r like Recover but cannot repair it (a pipe, stdin):
// the report says what a Recover on the backing file would do, and the
// returned entries are the recovered prefix. Truncated is always false.
func RecoverReader(r io.Reader) ([]event.Entry, RecoveryReport, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("wal: recover: read: %w", err)
	}
	return scanRecover(data)
}

// RecoverPath opens path read-write through fsys and recovers it in place.
func RecoverPath(fsys faultfs.FS, path string) ([]event.Entry, RecoveryReport, error) {
	f, err := fsys.OpenRW(path)
	if err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("wal: recover: %w", err)
	}
	defer f.Close()
	return Recover(f)
}

func scanRecover(data []byte) ([]event.Entry, RecoveryReport, error) {
	res := event.ScanRecover(data)
	rep := RecoveryReport{
		FormatVersion:  int(res.Version),
		FramesKept:     res.Frames,
		SyncMarkers:    res.SyncMarkers,
		LastSeq:        res.LastSeq,
		BytesKept:      res.BytesKept,
		BytesDropped:   int64(len(data)) - res.BytesKept,
		FirstBadOffset: res.BadOffset,
	}
	if res.Version == 1 {
		return nil, rep, fmt.Errorf("wal: recover: %w", event.CheckVersion(res.Version))
	}
	return res.Entries, rep, nil
}
