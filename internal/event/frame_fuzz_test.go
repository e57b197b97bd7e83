package event

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// reservedTagFrame returns a well-formed, correctly checksummed frame for
// entry #seq whose return value carries the reserved tag 10 over blob —
// byte for byte the shape the retired gob fallback wrote (tag, uvarint
// length, blob), so nothing but the tag check can reject it.
func reservedTagFrame(tb testing.TB, seq int64, blob []byte) []byte {
	tb.Helper()
	buf, err := appendPayload([]byte{0, 0, 0}, Entry{Seq: seq, Tid: 1, Kind: KindReturn, Method: "M", Ret: blob})
	if err != nil {
		tb.Fatal(err)
	}
	tagAt := len(buf) - len(blob) - len(binary.AppendUvarint(nil, uint64(len(blob)))) - 1
	if buf[tagAt] != tagBytes {
		tb.Fatalf("payload layout changed: byte %d is %d, want the []byte tag", tagAt, buf[tagAt])
	}
	buf[tagAt] = 10
	return sealFrameCRC(buf, 0, 3)
}

// TestReservedValueTagRejected: value tag 10 is refused by every decoder
// with an error, and an unsupported Go type is refused by the encoder with
// an error naming it.
func TestReservedValueTagRejected(t *testing.T) {
	frame := reservedTagFrame(t, 1, []byte("\x0c\xff\x81gob"))
	if _, _, err := DecodeEntryFrame(frame); err == nil || !strings.Contains(err.Error(), "unknown value tag 10") {
		t.Fatalf("DecodeEntryFrame(tag 10) = %v, want unknown value tag 10", err)
	}
	stream := append(append([]byte(formatMagic), FormatVersion), frame...)
	if _, err := NewDecoder(bytes.NewReader(stream)).Decode(); err == nil {
		t.Fatal("stream decoder accepted value tag 10")
	}
	if _, err := DecodeAllParallel(bytes.NewReader(stream), 2); err == nil {
		t.Fatal("parallel decoder accepted value tag 10")
	}
	if res := ScanRecover(stream); len(res.Entries) != 0 {
		t.Fatalf("recovery kept %d entries of a tag-10 stream", len(res.Entries))
	}

	_, err := AppendEntryFrame(nil, Entry{Seq: 1, Kind: KindCall, Method: "M", Args: []Value{struct{}{}}})
	if err == nil || !strings.Contains(err.Error(), "struct {}") || !strings.Contains(err.Error(), valueVocabulary) {
		t.Fatalf("encoding struct{}{} = %v, want an error naming the type and the vocabulary", err)
	}
}

// decodeStream runs the frame decoder to exhaustion over buf, enforcing
// the properties the network ingest path depends on: the decoder never
// panics, always makes progress (no infinite loop on a stuck prefix), and
// never reads past the buffer it was handed.
func decodeStream(t *testing.T, buf []byte) (entries int, err error) {
	t.Helper()
	p := buf
	for len(p) > 0 {
		e, rest, derr := DecodeEntryFrame(p)
		if derr != nil {
			return entries, derr
		}
		if len(rest) >= len(p) {
			t.Fatalf("decoder made no progress at offset %d of %d", len(buf)-len(p), len(buf))
		}
		if e.Method != "" && e.Sym != InternSym(e.Method) {
			t.Fatalf("decoded entry #%d without a re-interned method sym", e.Seq)
		}
		p = rest
		entries++
	}
	return entries, nil
}

// FuzzTornFrames models the network boundary of remote log shipping: a
// connection can die mid-frame, so the decoder sees streams cut at every
// byte position — mid-length-prefix, mid-payload — and streams with
// corrupted bytes. Truncating a valid stream must always yield the
// distinguished ErrShortFrame (the "wait for more bytes" signal the
// server's ingest loop relies on, never a panic or a misparse), and
// arbitrary corruption must error cleanly.
func FuzzTornFrames(f *testing.F) {
	f.Add(int64(42), "Insert", []byte{1, 2, 3}, uint16(5), uint16(0), byte(0xff))
	f.Add(int64(-1), "", []byte(nil), uint16(0), uint16(3), byte(0x80))
	f.Add(int64(1<<40), "Delete\x00x", []byte("payload"), uint16(130), uint16(1), byte(0x01))
	f.Fuzz(func(t *testing.T, iarg int64, method string, barg []byte, cut uint16, mutAt uint16, mutXor byte) {
		if len(barg) > 1<<10 {
			barg = barg[:1<<10]
		}
		// The first entry carries a >127-byte blob so its frame needs a
		// multi-byte length prefix: cuts inside the prefix itself are a
		// distinct failure mode from cuts inside the payload.
		blob := make([]byte, 160)
		copy(blob, barg)
		entries := []Entry{
			{Seq: 1, Tid: 1, Kind: KindCall, Method: method, Args: []Value{int(iarg), blob, method}},
			{Seq: 2, Tid: 2, Kind: KindReturn, Method: method, Ret: iarg},
		}
		var stream []byte
		var err error
		for _, e := range entries {
			stream, err = AppendEntryFrame(stream, e)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
		}

		// The intact stream decodes completely.
		n, err := decodeStream(t, stream)
		if err != nil {
			t.Fatalf("intact stream failed to decode: %v", err)
		}
		if n != len(entries) {
			t.Fatalf("intact stream decoded %d entries, want %d", n, len(entries))
		}

		// Every truncation of a valid stream is "short frame", nothing
		// else: whole frames up to the tear decode, then ErrShortFrame.
		for c := 0; c < len(stream); c++ {
			n, err := decodeStream(t, stream[:c])
			if err != nil && !errors.Is(err, ErrShortFrame) {
				t.Fatalf("cut at %d: error %v, want ErrShortFrame", c, err)
			}
			if err == nil && n != 1 {
				// Only one interior frame boundary exists; a cut decoding
				// cleanly must sit exactly on it (or at 0, handled by the
				// loop bound).
				if c != 0 {
					t.Fatalf("cut at %d decoded %d entries with no error", c, n)
				}
			}
		}

		// The reserved value tag over the fuzz-chosen blob, correctly
		// framed and checksummed, is an error rather than a decode.
		if _, err := decodeStream(t, reservedTagFrame(t, 1, barg)); err == nil || errors.Is(err, ErrShortFrame) {
			t.Fatalf("value tag 10 over %x decoded with %v", barg, err)
		}

		// One fuzz-chosen tear plus a byte flip: corruption may misparse a
		// length or a field, but the decoder must fail (or succeed) cleanly
		// — no panic, no over-read, no stuck loop. decodeStream asserts
		// all three.
		torn := append([]byte(nil), stream[:int(cut)%(len(stream)+1)]...)
		if len(torn) > 0 {
			torn[int(mutAt)%len(torn)] ^= mutXor
		}
		decodeStream(t, torn)

		// The flipped byte alone over the full stream.
		mut := append([]byte(nil), stream...)
		mut[int(mutAt)%len(mut)] ^= mutXor
		decodeStream(t, mut)
	})
}
