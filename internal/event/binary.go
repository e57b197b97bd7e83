package event

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary codec (format versions 2 and 3). Each entry is one frame:
//
//	uvarint payload-length | payload              (version 2)
//	uvarint payload-length | payload | crc32c     (version 3)
//
// and the payload is:
//
//	uvarint Seq | varint Tid | byte Kind | byte field-flags
//	| string Method
//	| [string Label] [string WOp] [string Module]        (per flags)
//	| [uvarint n, n values Args] [value Ret] [uvarint n, n values WArgs]
//
// Strings are uvarint length + raw bytes. Values are a tag byte followed by
// the tag-specific payload; the common logged types (ints, strings, bools,
// byte buffers, int/string slices, Exceptional) are the whole vocabulary:
// the encoder refuses any other type by name, and the decoder refuses any
// other tag. The frame shape is what makes parallel offline decode possible:
// frame scanning only reads length prefixes, so a single reader can slice
// the stream into batches for a decode worker pool (parallel.go) while the
// checker consumes entries strictly in order.
//
// Version 3 adds crash consistency: every frame carries a trailing CRC32-C
// of its payload (the length prefix is implicitly covered — a corrupt
// prefix either points past the buffer or frames a payload whose checksum
// cannot match), and the stream is punctuated by sync markers: distinguished
// frames whose payload is `0x00 | uvarint last-seq`. Entry payloads always
// start with the uvarint of a sequence number >= 1, so a leading zero byte
// unambiguously identifies a marker. The durable sink (internal/wal) flushes
// and fsyncs at each marker, and wal.Recover uses checksums, markers and
// sequence contiguity to find the last valid frame boundary of a torn file.

// maxFrameSize bounds a single frame so a corrupt length prefix cannot ask
// for gigabytes. Logged values are method arguments and small buffers; 16MB
// is far above anything a probe writes.
const maxFrameSize = 16 << 20

// frameCRCSize is the trailing checksum of a version-3 frame.
const frameCRCSize = 4

// castagnoli is the CRC32-C polynomial table (the checksum of iSCSI, ext4
// and Snappy; hardware-accelerated on amd64/arm64 through hash/crc32).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Field-presence flags in the payload header byte.
const (
	flagWorker = 1 << iota
	flagLabel
	flagWOp
	flagModule
	flagRet
	flagArgs
	flagWArgs
)

// Value tags.
const (
	tagNil byte = iota
	tagInt
	tagInt64
	tagString
	tagTrue
	tagFalse
	tagBytes
	tagInts
	tagStrings
	tagExceptional
	// 10 is reserved: streams written before the gob fallback for custom
	// types was retired may carry it, so it is rejected on decode and
	// never reassigned.
	_
)

// appendFrame appends the framed version-3 encoding of e (length prefix,
// payload, CRC32-C) to buf.
func appendFrame(buf []byte, e Entry) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0) // room for the common 1-3 byte length prefix
	body := len(buf)
	var err error
	if buf, err = appendPayload(buf, e); err != nil {
		return buf, err
	}
	return sealFrameCRC(buf, start, body), nil
}

// sealFrame writes the length prefix for the payload occupying buf[body:]
// into the space reserved at buf[start:body] (shifting the payload when the
// uvarint needs a different width) and returns the framed buffer.
func sealFrame(buf []byte, start, body int) []byte {
	size := uint64(len(buf) - body)
	var pfx [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pfx[:], size)
	if n != body-start {
		// Rare: the prefix needs a different width than reserved; shift.
		buf = append(buf[:start+n], buf[body:]...)
	}
	copy(buf[start:], pfx[:n])
	return buf
}

// sealFrameCRC seals the frame like sealFrame and appends the CRC32-C of
// the payload, completing a version-3 frame. The checksum is computed
// before sealing moves the payload, so it covers exactly buf[body:].
func sealFrameCRC(buf []byte, start, body int) []byte {
	sum := crc32.Checksum(buf[body:], castagnoli)
	buf = sealFrame(buf, start, body)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// appendSyncMarker appends a version-3 sync marker frame recording that
// every entry up to and including lastSeq precedes it in the stream. The
// durable sink flushes and fsyncs after writing one, so recovery can trust
// that everything before a marker was meant to reach disk.
func appendSyncMarker(buf []byte, lastSeq int64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0)
	body := len(buf)
	buf = append(buf, 0x00) // the marker discriminator: entry seqs are >= 1
	buf = binary.AppendUvarint(buf, uint64(lastSeq))
	return sealFrameCRC(buf, start, body)
}

// isSyncMarker reports whether a frame payload is a sync marker rather
// than an entry: entry payloads begin with the uvarint of a sequence
// number >= 1, so a leading zero byte is unambiguous.
func isSyncMarker(payload []byte) bool { return len(payload) > 0 && payload[0] == 0x00 }

// decodeSyncMarker extracts the last-seq value of a marker payload.
func decodeSyncMarker(payload []byte) (lastSeq int64, ok bool) {
	if !isSyncMarker(payload) {
		return 0, false
	}
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 || 1+n != len(payload) || v > 1<<62 {
		return 0, false
	}
	return int64(v), true
}

// appendPayload appends the payload encoding of e (no length prefix).
func appendPayload(buf []byte, e Entry) ([]byte, error) {
	if e.Seq < 0 {
		return buf, fmt.Errorf("negative seq %d", e.Seq)
	}
	buf = binary.AppendUvarint(buf, uint64(e.Seq))
	buf = binary.AppendVarint(buf, int64(e.Tid))
	var flags byte
	if e.Worker {
		flags |= flagWorker
	}
	if e.Label != "" {
		flags |= flagLabel
	}
	if e.WOp != "" {
		flags |= flagWOp
	}
	if e.Module != "" {
		flags |= flagModule
	}
	if e.Ret != nil {
		flags |= flagRet
	}
	if len(e.Args) > 0 {
		flags |= flagArgs
	}
	if len(e.WArgs) > 0 {
		flags |= flagWArgs
	}
	buf = append(buf, byte(e.Kind), flags)
	buf = appendString(buf, e.Method)
	if flags&flagLabel != 0 {
		buf = appendString(buf, e.Label)
	}
	if flags&flagWOp != 0 {
		buf = appendString(buf, e.WOp)
	}
	if flags&flagModule != 0 {
		buf = appendString(buf, e.Module)
	}
	var err error
	if flags&flagArgs != 0 {
		if buf, err = appendValues(buf, e.Args); err != nil {
			return buf, err
		}
	}
	if flags&flagRet != 0 {
		if buf, err = appendValue(buf, e.Ret); err != nil {
			return buf, err
		}
	}
	if flags&flagWArgs != 0 {
		if buf, err = appendValues(buf, e.WArgs); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendValues(buf []byte, vs []Value) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if buf, err = appendValue(buf, v); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// valueVocabulary names the closed set of types appendValue encodes.
const valueVocabulary = "nil, int, int64, string, bool, []byte, []int, []string, event.Exceptional"

func appendValue(buf []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case int:
		return binary.AppendVarint(append(buf, tagInt), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(buf, tagInt64), x), nil
	case string:
		return appendString(append(buf, tagString), x), nil
	case bool:
		if x {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil
	case []byte:
		buf = binary.AppendUvarint(append(buf, tagBytes), uint64(len(x)))
		return append(buf, x...), nil
	case []int:
		buf = binary.AppendUvarint(append(buf, tagInts), uint64(len(x)))
		for _, n := range x {
			buf = binary.AppendVarint(buf, int64(n))
		}
		return buf, nil
	case []string:
		buf = binary.AppendUvarint(append(buf, tagStrings), uint64(len(x)))
		for _, s := range x {
			buf = appendString(buf, s)
		}
		return buf, nil
	case Exceptional:
		return appendString(append(buf, tagExceptional), x.Reason), nil
	default:
		return buf, fmt.Errorf("encode value of type %T: not in the log value vocabulary (%s)", v, valueVocabulary)
	}
}

// decodeEntry decodes one frame payload. Strings for Method/Label/WOp/Module
// resolve through the symbol interner, so steady-state decoding of a hot
// method name allocates nothing for those fields.
func decodeEntry(p []byte) (Entry, error) {
	var e Entry
	seq, p, err := takeUvarint(p)
	if err != nil {
		return e, fmt.Errorf("event: decode seq: %w", err)
	}
	e.Seq = int64(seq)
	tid, p, err := takeVarint(p)
	if err != nil {
		return e, fmt.Errorf("event: decode tid: %w", err)
	}
	e.Tid = int32(tid)
	if len(p) < 2 {
		return e, fmt.Errorf("event: decode entry #%d: truncated header", e.Seq)
	}
	e.Kind, p = Kind(p[0]), p[1:]
	flags := p[0]
	p = p[1:]
	e.Worker = flags&flagWorker != 0
	if e.Sym, e.Method, p, err = takeSym(p); err != nil {
		return e, fmt.Errorf("event: decode entry #%d method: %w", e.Seq, err)
	}
	if flags&flagLabel != 0 {
		if _, e.Label, p, err = takeSym(p); err != nil {
			return e, fmt.Errorf("event: decode entry #%d label: %w", e.Seq, err)
		}
	}
	if flags&flagWOp != 0 {
		if e.WSym, e.WOp, p, err = takeSym(p); err != nil {
			return e, fmt.Errorf("event: decode entry #%d wop: %w", e.Seq, err)
		}
	}
	if flags&flagModule != 0 {
		if e.Mod, e.Module, p, err = takeSym(p); err != nil {
			return e, fmt.Errorf("event: decode entry #%d module: %w", e.Seq, err)
		}
	}
	if flags&flagArgs != 0 {
		if e.Args, p, err = takeValues(p); err != nil {
			return e, fmt.Errorf("event: decode entry #%d args: %w", e.Seq, err)
		}
	}
	if flags&flagRet != 0 {
		if e.Ret, p, err = takeValue(p); err != nil {
			return e, fmt.Errorf("event: decode entry #%d ret: %w", e.Seq, err)
		}
	}
	if flags&flagWArgs != 0 {
		if e.WArgs, p, err = takeValues(p); err != nil {
			return e, fmt.Errorf("event: decode entry #%d wargs: %w", e.Seq, err)
		}
	}
	if len(p) != 0 {
		return e, fmt.Errorf("event: decode entry #%d: %d trailing bytes in frame", e.Seq, len(p))
	}
	return e, nil
}

var errTruncated = fmt.Errorf("truncated field")

func takeUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, errTruncated
	}
	return v, p[n:], nil
}

func takeVarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, errTruncated
	}
	return v, p[n:], nil
}

// takeBytes takes a length-prefixed byte field, aliasing the frame buffer.
func takeBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := takeUvarint(p)
	if err != nil {
		return nil, p, err
	}
	if uint64(len(p)) < n {
		return nil, p, errTruncated
	}
	return p[:n], p[n:], nil
}

// takeSym takes a length-prefixed string field through the interner: the
// returned string is the canonical interned copy, so decoding a hot name
// allocates nothing.
func takeSym(p []byte) (Sym, string, []byte, error) {
	b, p, err := takeBytes(p)
	if err != nil {
		return 0, "", p, err
	}
	s, name := internBytes(b)
	return s, name, p, nil
}

func takeString(p []byte) (string, []byte, error) {
	b, p, err := takeBytes(p)
	if err != nil {
		return "", p, err
	}
	return string(b), p, nil
}

func takeValues(p []byte) ([]Value, []byte, error) {
	n, p, err := takeUvarint(p)
	if err != nil {
		return nil, p, err
	}
	if n > uint64(len(p)) { // each value is at least one byte
		return nil, p, errTruncated
	}
	vs := make([]Value, n)
	for i := range vs {
		if vs[i], p, err = takeValue(p); err != nil {
			return nil, p, err
		}
	}
	return vs, p, nil
}

func takeValue(p []byte) (Value, []byte, error) {
	if len(p) == 0 {
		return nil, p, errTruncated
	}
	tag := p[0]
	p = p[1:]
	switch tag {
	case tagNil:
		return nil, p, nil
	case tagInt:
		v, p, err := takeVarint(p)
		return int(v), p, err
	case tagInt64:
		v, p, err := takeVarint(p)
		return v, p, err
	case tagString:
		v, p, err := takeString(p)
		return v, p, err
	case tagTrue:
		return true, p, nil
	case tagFalse:
		return false, p, nil
	case tagBytes:
		b, p, err := takeBytes(p)
		if err != nil {
			return nil, p, err
		}
		return append([]byte(nil), b...), p, nil
	case tagInts:
		n, p, err := takeUvarint(p)
		if err != nil {
			return nil, p, err
		}
		if n > uint64(len(p)) {
			return nil, p, errTruncated
		}
		ns := make([]int, n)
		for i := range ns {
			var v int64
			if v, p, err = takeVarint(p); err != nil {
				return nil, p, err
			}
			ns[i] = int(v)
		}
		return ns, p, nil
	case tagStrings:
		n, p, err := takeUvarint(p)
		if err != nil {
			return nil, p, err
		}
		if n > uint64(len(p)) {
			return nil, p, errTruncated
		}
		ss := make([]string, n)
		for i := range ss {
			if ss[i], p, err = takeString(p); err != nil {
				return nil, p, err
			}
		}
		return ss, p, nil
	case tagExceptional:
		reason, p, err := takeString(p)
		return Exceptional{Reason: reason}, p, err
	default:
		return nil, p, fmt.Errorf("unknown value tag %d", tag)
	}
}

// readUvarint reads a uvarint from br, distinguishing a clean EOF (no bytes)
// from a truncated prefix.
func readUvarint(br io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i == 0 {
				return 0, io.EOF
			}
			return 0, io.ErrUnexpectedEOF
		}
		if shift >= 64 {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}
