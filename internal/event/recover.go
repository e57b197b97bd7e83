package event

import "encoding/binary"

// Torn-tail recovery scanner. A crashed producer leaves a log file whose
// tail may be cut mid-frame (the kernel flushed a partial page) or contain
// garbage past the last fsync'd sync marker. ScanRecover walks the framed
// binary stream from the front and finds the longest prefix that is fully
// valid: header intact, every frame complete with a matching checksum
// (version 3), every entry decodable with contiguous sequence numbers from
// 1, every sync marker consistent with the entries before it. Everything
// after that prefix is the torn tail; wal.Recover truncates it away.

// ScanResult describes the valid prefix ScanRecover found.
type ScanResult struct {
	// Version is the stream's format version byte (0 when the input has no
	// readable VYRDLOG header at all).
	Version byte
	// Entries holds the decoded entries of the valid prefix, in order.
	Entries []Entry
	// Frames counts the valid frames kept (entries plus sync markers).
	Frames int
	// SyncMarkers counts the sync marker frames within the prefix.
	SyncMarkers int
	// LastSeq is the sequence number of the last kept entry (0 if none).
	LastSeq int64
	// BytesKept is the length of the valid prefix. A reader handed exactly
	// data[:BytesKept] decodes it without error.
	BytesKept int64
	// BadOffset is the offset of the first byte that could not be
	// validated, or -1 when the entire input is a valid stream.
	BadOffset int64
}

// Clean reports whether the whole input was valid (nothing to truncate).
func (r ScanResult) Clean() bool { return r.BadOffset < 0 }

// headerSize is the byte length of the VYRDLOG stream header.
const headerSize = len(formatMagic) + 1

// ScanRecover scans data as a framed binary VYRDLOG stream and returns its
// longest valid prefix. It never panics on arbitrary input. Inputs without
// a readable header (too short, wrong magic, a version byte CheckVersion
// rejects) yield BytesKept == 0; the caller decides what that means —
// wal.Recover refuses to touch version-1 files rather than truncating an
// artifact of an earlier release to nothing.
func ScanRecover(data []byte) ScanResult {
	res := ScanResult{BadOffset: -1}
	if len(data) == 0 {
		return res // an empty file is a valid empty stream
	}
	if len(data) < headerSize || string(data[:len(formatMagic)]) != formatMagic {
		res.BadOffset = 0
		return res
	}
	res.Version = data[len(formatMagic)]
	if CheckVersion(res.Version) != nil {
		// A version this package does not read cannot be frame-scanned.
		// Report the header as the first unvalidated byte and keep nothing.
		res.BadOffset = 0
		return res
	}
	crc := res.Version == FormatVersion

	pos := headerSize
	res.BytesKept = int64(pos)
	for pos < len(data) {
		size, n := binary.Uvarint(data[pos:])
		if n <= 0 || size > maxFrameSize {
			// Torn or corrupt length prefix (n==0: the buffer ends inside
			// the uvarint; n<0 or oversize: garbage).
			res.BadOffset = int64(pos)
			return res
		}
		frameEnd := pos + n + int(size)
		if crc {
			frameEnd += frameCRCSize
		}
		if frameEnd > len(data) {
			res.BadOffset = int64(pos) // frame cut short: the torn tail
			return res
		}
		payload := data[pos+n : pos+n+int(size)]
		if crc {
			if verifyFrameCRC(payload, data[pos+n+int(size):frameEnd]) != nil {
				res.BadOffset = int64(pos)
				return res
			}
		}
		if crc && isSyncMarker(payload) {
			last, ok := decodeSyncMarker(payload)
			if !ok || last != res.LastSeq {
				// A marker disagreeing with the entries before it means
				// the stream was spliced or corrupted in a way the
				// per-frame checksum cannot see; stop here.
				res.BadOffset = int64(pos)
				return res
			}
			res.SyncMarkers++
		} else {
			e, err := decodeEntry(payload)
			if err != nil || e.Seq != res.LastSeq+1 {
				// Undetected corruption (version 2 has no checksums) or a
				// sequence gap: the prefix up to here is still coherent.
				res.BadOffset = int64(pos)
				return res
			}
			res.Entries = append(res.Entries, e)
			res.LastSeq = e.Seq
		}
		res.Frames++
		pos = frameEnd
		res.BytesKept = int64(pos)
	}
	return res
}
