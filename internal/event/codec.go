package event

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// The paper's logging mechanism uses the binary object serialization of the
// .NET platform to restore record objects as they were saved at runtime
// (Section 6.1). This package plays the same role with one stream format:
// a fixed header (magic + format version) followed by hand-rolled
// length-prefixed frames (see binary.go), each with a trailing CRC32-C, and
// periodic sync markers for crash recovery. Every record is an independent
// frame, so offline replay can scan frame boundaries cheaply and decode
// frames on a worker pool (see StreamParallel).
//
// The encoder writes format version 3 only. The decoders also read version
// 2 — the same framing without checksums or markers; a per-stream flag is
// all that costs — so old artifacts stay readable. Anything else, including
// the retired gob version 1, fails with ErrFormatMismatch instead of an
// opaque decode error deep in the stream. Bump FormatVersion whenever the
// binary wire shape of Entry changes; committed artifacts are regenerated
// with `go generate ./vyrd` (see vyrd/gen_fig6.go).

// FormatVersion is the log stream format the encoder writes. Version
// history:
//
//	1: header + gob-encoded Entry records; retired, no longer readable
//	2: length-prefixed framed binary records (binary.go); read-only
//	3: version 2 plus a trailing CRC32-C per frame and sync marker frames,
//	   enabling torn-tail recovery (wal.Recover)
const FormatVersion = 3

// formatVersionNoCRC is the pre-checksum framed stream version, the oldest
// the decoders read.
const formatVersionNoCRC = 2

// formatMagic identifies a VYRD log stream; the byte after it carries the
// format version.
const formatMagic = "VYRDLOG"

// ErrFormatMismatch reports that a stream is not a VYRD log of a version
// this package reads. Use errors.Is to detect it.
var ErrFormatMismatch = errors.New("log format version mismatch")

// CheckVersion reports whether a stream whose header carries format version
// v is readable: nil for versions 2 and 3, otherwise an error wrapping
// ErrFormatMismatch that names the version found and the versions read.
// Every entry point that meets a header (the decoders here, wal.Recover)
// fails with this one message.
func CheckVersion(v byte) error {
	if v == formatVersionNoCRC || v == FormatVersion {
		return nil
	}
	hint := ""
	if v == 1 {
		hint = " (version 1 is the retired gob encoding; record the run again)"
	}
	return fmt.Errorf("%w: stream has format version %d, this build reads versions %d-%d%s",
		ErrFormatMismatch, v, formatVersionNoCRC, FormatVersion, hint)
}

// Encoder serializes entries to a stream, prefixed with the format header.
type Encoder struct {
	w      io.Writer
	buf    []byte // frame scratch
	headed bool
}

// NewEncoder returns an Encoder writing the current format to w. The header
// is written lazily with the first entry, so constructing an encoder
// performs no I/O.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode appends one entry to the stream.
func (e *Encoder) Encode(entry Entry) error {
	if !e.headed {
		if _, err := e.w.Write(append([]byte(formatMagic), FormatVersion)); err != nil {
			return fmt.Errorf("event: write stream header: %w", err)
		}
		e.headed = true
	}
	buf, err := appendFrame(e.buf[:0], entry)
	if err != nil {
		return fmt.Errorf("event: encode entry #%d: %w", entry.Seq, err)
	}
	e.buf = buf // keep the grown scratch for the next entry
	if _, err := e.w.Write(buf); err != nil {
		return fmt.Errorf("event: write entry #%d: %w", entry.Seq, err)
	}
	return nil
}

// SyncMarker appends a sync marker frame recording that every entry with
// sequence number <= lastSeq precedes it in the stream. Before any entry
// has been written SyncMarker is a no-op, so callers can emit markers on a
// fixed cadence without tracking whether the stream has started.
func (e *Encoder) SyncMarker(lastSeq int64) error {
	if !e.headed {
		return nil
	}
	buf := appendSyncMarker(e.buf[:0], lastSeq)
	e.buf = buf
	if _, err := e.w.Write(buf); err != nil {
		return fmt.Errorf("event: write sync marker: %w", err)
	}
	return nil
}

// Decoder deserializes entries from a stream produced by Encoder (or by the
// version-2 encoder of earlier releases).
type Decoder struct {
	br     *bufio.Reader
	buf    []byte // payload scratch
	headed bool
	crc    bool // stream is version 3: frames checksummed, markers present
}

// NewDecoder returns a Decoder reading a log stream from r.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return &Decoder{br: br}
}

// readHeader consumes and validates the stream header and reports whether
// the stream's frames carry checksums (version 3) or not (version 2).
func readHeader(rd io.Reader) (crc bool, err error) {
	hdr := make([]byte, len(formatMagic)+1)
	n, err := io.ReadFull(rd, hdr)
	if err == io.EOF && n == 0 {
		return false, io.EOF // empty stream: no entries, not a format error
	}
	if err != nil {
		return false, fmt.Errorf("event: %w: stream too short for a VYRDLOG header", ErrFormatMismatch)
	}
	if string(hdr[:len(formatMagic)]) != formatMagic {
		return false, fmt.Errorf("event: %w: stream has no VYRDLOG header (pre-versioning artifact? regenerate it, e.g. go generate ./vyrd)", ErrFormatMismatch)
	}
	v := hdr[len(formatMagic)]
	if err := CheckVersion(v); err != nil {
		return false, fmt.Errorf("event: %w", err)
	}
	return v == FormatVersion, nil
}

// Decode reads the next entry, transparently skipping sync marker frames.
// It returns io.EOF at end of stream. Decoded entries carry freshly
// interned Sym/WSym/Mod ids.
func (d *Decoder) Decode() (Entry, error) {
	if !d.headed {
		crc, err := readHeader(d.br)
		if err != nil {
			return Entry{}, err
		}
		d.headed, d.crc = true, crc
	}
	for {
		payload, err := readFrame(d.br, &d.buf, d.crc)
		if err != nil {
			return Entry{}, err
		}
		if d.crc && isSyncMarker(payload) {
			if _, ok := decodeSyncMarker(payload); !ok {
				return Entry{}, fmt.Errorf("event: malformed sync marker frame")
			}
			continue
		}
		return decodeEntry(payload)
	}
}

// readFrame reads one length-prefixed frame into *scratch (grown as needed)
// and returns the payload slice, valid until the next call. With crc set
// the trailing checksum is read alongside the payload and verified.
func readFrame(br *bufio.Reader, scratch *[]byte, crc bool) ([]byte, error) {
	size, err := readUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("event: read frame length: %w", err)
	}
	if size > maxFrameSize {
		return nil, fmt.Errorf("event: frame length %d exceeds limit %d (corrupt stream?)", size, maxFrameSize)
	}
	whole := size
	if crc {
		whole += frameCRCSize
	}
	if uint64(cap(*scratch)) < whole {
		*scratch = make([]byte, whole, whole*2)
	}
	buf := (*scratch)[:whole]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("event: read frame payload: %w", err)
	}
	payload := buf[:size]
	if crc {
		if err := verifyFrameCRC(payload, buf[size:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// DecodeAll reads every remaining entry from the stream.
func (d *Decoder) DecodeAll() ([]Entry, error) {
	var entries []Entry
	for {
		e, err := d.Decode()
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return entries, err
		}
		entries = append(entries, e)
	}
}
