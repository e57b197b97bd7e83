package event

import (
	"bytes"
	"testing"
)

// appendFrameNoCRC appends the version-2 frame shape (length prefix and
// payload, no checksum). No encoder writes it any more; the decoders still
// read it, so the tests build such streams by hand.
func appendFrameNoCRC(t *testing.T, buf []byte, e Entry) []byte {
	t.Helper()
	start := len(buf)
	buf = append(buf, 0, 0, 0)
	body := len(buf)
	buf, err := appendPayload(buf, e)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return sealFrame(buf, start, body)
}

// buildStream encodes entries (seq 1..n assigned here) as a stream of the
// given format version (3, or 2 through appendFrameNoCRC), inserting a sync
// marker every markEvery entries in version 3, and returns the stream bytes
// plus the end offset of every frame.
func buildStream(t *testing.T, version byte, n, markEvery int) (data []byte, frameEnds []int, entrySeqs []int64) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if version == formatVersionNoCRC {
		buf.Write(append([]byte(formatMagic), version))
	}
	for i := 1; i <= n; i++ {
		e := Entry{
			Seq:    int64(i),
			Tid:    int32(i%3 + 1),
			Kind:   KindCall,
			Method: "Insert",
			Args:   []Value{i, "key"},
		}
		if version == formatVersionNoCRC {
			buf.Write(appendFrameNoCRC(t, nil, e))
		} else if err := enc.Encode(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
		frameEnds = append(frameEnds, buf.Len())
		entrySeqs = append(entrySeqs, int64(i))
		if version == FormatVersion && markEvery > 0 && i%markEvery == 0 {
			if err := enc.SyncMarker(int64(i)); err != nil {
				t.Fatalf("marker: %v", err)
			}
			frameEnds = append(frameEnds, buf.Len())
			entrySeqs = append(entrySeqs, 0) // 0 = marker frame
		}
	}
	return buf.Bytes(), frameEnds, entrySeqs
}

// TestScanRecoverEveryCrashOffset is the core recovery property: for every
// possible crash offset of a valid log, the scanner keeps exactly the
// frames whose last byte precedes the offset — no valid frame is dropped,
// no partial frame is kept.
func TestScanRecoverEveryCrashOffset(t *testing.T) {
	for _, codec := range []byte{FormatVersion, formatVersionNoCRC} {
		data, frameEnds, entrySeqs := buildStream(t, codec, 23, 5)
		for cut := 0; cut <= len(data); cut++ {
			res := ScanRecover(data[:cut])
			// Expected: the largest frame end <= cut (or the bare header).
			wantBytes, wantFrames, wantEntries := 0, 0, 0
			if cut >= headerSize {
				wantBytes = headerSize
				for i, end := range frameEnds {
					if end > cut {
						break
					}
					wantBytes = end
					wantFrames = i + 1
					if entrySeqs[i] != 0 {
						wantEntries++
					}
				}
			}
			if res.BytesKept != int64(wantBytes) {
				t.Fatalf("v%d cut %d: kept %d bytes, want %d", codec, cut, res.BytesKept, wantBytes)
			}
			if res.Frames != wantFrames || len(res.Entries) != wantEntries {
				t.Fatalf("v%d cut %d: kept %d frames / %d entries, want %d / %d",
					codec, cut, res.Frames, len(res.Entries), wantFrames, wantEntries)
			}
			for i, e := range res.Entries {
				if e.Seq != int64(i+1) {
					t.Fatalf("v%d cut %d: entry %d has seq %d", codec, cut, i, e.Seq)
				}
			}
			// The scan is clean exactly when the cut sits on a frame
			// boundary (or before any content): nothing was left over.
			if res.Clean() != (cut == wantBytes) {
				t.Fatalf("v%d cut %d: clean=%v with %d bytes kept", codec, cut, res.Clean(), wantBytes)
			}
		}
	}
}

// TestScanRecoverCorruptByte flips every byte of a small v3 stream in turn
// and checks the scanner never keeps the corrupted frame: the checksum (or
// a decode/sequence check) stops the scan at or before the damaged frame.
func TestScanRecoverCorruptByte(t *testing.T) {
	data, frameEnds, _ := buildStream(t, FormatVersion, 8, 3)
	clean := ScanRecover(data)
	if !clean.Clean() || clean.LastSeq != 8 {
		t.Fatalf("clean scan: %+v", clean)
	}
	for pos := headerSize; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		res := ScanRecover(mut)
		// The frame containing pos starts at the previous frame end.
		frameStart := headerSize
		for _, end := range frameEnds {
			if end > pos {
				break
			}
			frameStart = end
		}
		if res.BytesKept > int64(frameStart) {
			t.Fatalf("flip at %d: kept %d bytes, beyond the damaged frame's start %d", pos, res.BytesKept, frameStart)
		}
	}
}

// TestScanRecoverRejectsSplicedMarker pins the marker consistency check: a
// marker whose recorded seq disagrees with the entries before it ends the
// valid prefix even though its checksum is fine.
func TestScanRecoverRejectsSplicedMarker(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 1; i <= 3; i++ {
		if err := enc.Encode(Entry{Seq: int64(i), Tid: 1, Kind: KindCall, Method: "M"}); err != nil {
			t.Fatal(err)
		}
	}
	good := buf.Len()
	// A well-formed, correctly checksummed marker claiming the wrong seq.
	spliced := appendSyncMarker(buf.Bytes(), 7)
	res := ScanRecover(spliced)
	if res.BytesKept != int64(good) || len(res.Entries) != 3 || res.Clean() {
		t.Fatalf("spliced marker survived the scan: %+v", res)
	}
}

// FuzzRecoverArbitraryBytes feeds the scanner byte soup. Whatever comes
// in, it must not panic, must keep a prefix the default reader accepts
// without error, and must report internally consistent numbers.
func FuzzRecoverArbitraryBytes(f *testing.F) {
	var seed bytes.Buffer
	enc := NewEncoder(&seed)
	for i := 1; i <= 6; i++ {
		if err := enc.Encode(Entry{Seq: int64(i), Tid: 1, Kind: KindCall, Method: "M", Args: []Value{i}}); err != nil {
			f.Fatal(err)
		}
		if i%2 == 0 {
			if err := enc.SyncMarker(int64(i)); err != nil {
				f.Fatal(err)
			}
		}
	}
	valid := seed.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte("VYRDLOG\x03garbage"))
	f.Add([]byte("VYRDLOG\x01gobgobgob"))
	f.Add([]byte("not a log at all"))
	f.Add(append(append([]byte(nil), valid...), reservedTagFrame(f, 7, []byte("gob"))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		res := ScanRecover(data)
		if res.BytesKept < 0 || res.BytesKept > int64(len(data)) {
			t.Fatalf("BytesKept %d outside [0,%d]", res.BytesKept, len(data))
		}
		if res.BadOffset >= 0 && res.BadOffset < res.BytesKept {
			t.Fatalf("BadOffset %d inside the kept prefix (%d)", res.BadOffset, res.BytesKept)
		}
		if res.Version == 1 {
			return // gob: recovery refuses, nothing further to check
		}
		prefix := data[:res.BytesKept]
		entries, err := NewDecoder(bytes.NewReader(prefix)).DecodeAll()
		if err != nil {
			t.Fatalf("reader rejected the recovered prefix: %v", err)
		}
		if len(entries) != len(res.Entries) {
			t.Fatalf("reader saw %d entries, scanner kept %d", len(entries), len(res.Entries))
		}
		for i := range entries {
			if entries[i].Seq != int64(i+1) {
				t.Fatalf("recovered entry %d has seq %d", i, entries[i].Seq)
			}
		}
		if res.LastSeq != int64(len(entries)) {
			t.Fatalf("LastSeq %d with %d entries", res.LastSeq, len(entries))
		}
	})
}
