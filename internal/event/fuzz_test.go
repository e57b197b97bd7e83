package event

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzEntries builds a two-entry stream from the fuzz inputs: one entry
// exercising every field (args of several registered types, a commit write,
// a module tag, an Exceptional return) and one minimal entry, so the
// round-trip covers both the header and encoder state reuse across records.
func fuzzEntries(tid int32, kind uint8, method, label, sarg string, iarg int64, barg []byte,
	flag bool, reason string, wop string, wargs int64) []Entry {
	k := Kind(kind%6) + 1
	first := Entry{
		Seq:    1,
		Tid:    tid,
		Kind:   k,
		Method: method,
		Args: []Value{
			int(iarg), iarg, sarg, flag, barg,
			[]int{int(iarg), int(tid)}, []string{sarg, method},
		},
		Ret:    Exceptional{Reason: reason},
		Label:  label,
		Worker: flag,
		WOp:    wop,
		WArgs:  []Value{wargs, sarg},
		Module: label,
	}
	second := Entry{Seq: 2, Tid: tid + 1, Kind: KindReturn, Method: method, Ret: flag}
	return []Entry{first, second}
}

// encodeAll serializes entries with a fresh Encoder and returns the bytes.
func encodeAll(t *testing.T, entries []Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return buf.Bytes()
}

// roundTrip checks the codec's load-bearing properties over arbitrary field
// contents: decoding is loss-free (every field comes back equal, including
// interface-typed Args/Ret/WArgs holding registered slice types and
// Exceptional), re-encoding the decoded entries reproduces the original
// byte stream (so persisted artifacts are stable and diffable), and a
// truncated stream fails with the explicit format error.
func roundTrip(t *testing.T, entries []Entry) {
	t.Helper()
	raw := encodeAll(t, entries)

	dec := NewDecoder(bytes.NewReader(raw))
	decoded, err := dec.DecodeAll()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(decoded), len(entries))
	}
	for i := range entries {
		a, b := entries[i], decoded[i]
		// Sym/WSym/Mod are process-local and never persisted; decoders
		// re-intern them, so only the string fields are compared.
		if a.Seq != b.Seq || a.Tid != b.Tid || a.Kind != b.Kind || a.Method != b.Method ||
			a.Label != b.Label || a.Worker != b.Worker || a.WOp != b.WOp || a.Module != b.Module {
			t.Fatalf("entry %d scalar fields differ:\n %+v\n %+v", i, a, b)
		}
		if b.Method != "" && b.Sym != InternSym(b.Method) {
			t.Fatalf("entry %d decoded without an interned method sym", i)
		}
		if !Equal(a.Ret, b.Ret) {
			t.Fatalf("entry %d ret differs: %#v vs %#v", i, a.Ret, b.Ret)
		}
		if len(a.Args) != len(b.Args) || len(a.WArgs) != len(b.WArgs) {
			t.Fatalf("entry %d arg counts differ", i)
		}
		for j := range a.Args {
			if !Equal(a.Args[j], b.Args[j]) {
				t.Fatalf("entry %d arg %d differs: %#v vs %#v", i, j, a.Args[j], b.Args[j])
			}
		}
		for j := range a.WArgs {
			if !Equal(a.WArgs[j], b.WArgs[j]) {
				t.Fatalf("entry %d warg %d differs: %#v vs %#v", i, j, a.WArgs[j], b.WArgs[j])
			}
		}
	}

	// Byte-stable re-encode: a fresh encoder over the decoded entries
	// must reproduce the stream bit for bit.
	if re := encodeAll(t, decoded); !bytes.Equal(raw, re) {
		t.Fatalf("re-encode not byte-stable:\n first  %x\n second %x", raw, re)
	}

	// A truncated stream must fail with the explicit format error, never
	// silently succeed with a short header.
	if len(raw) > 3 {
		_, err := NewDecoder(bytes.NewReader(raw[:3])).Decode()
		if err == nil || err == io.EOF || !errors.Is(err, ErrFormatMismatch) {
			t.Fatalf("3-byte stream decoded without format error: %v", err)
		}
	}

	// A version-1 header (the retired gob encoding) must be rejected with
	// the explicit version-mismatch error by both decoders, not misread as
	// frames.
	v1 := append([]byte(nil), raw...)
	v1[len(formatMagic)] = 1
	if _, err := NewDecoder(bytes.NewReader(v1)).Decode(); !errors.Is(err, ErrFormatMismatch) {
		t.Fatalf("decoder accepted a version-1 stream: %v", err)
	}
	if _, err := DecodeAllParallel(bytes.NewReader(v1), 4); !errors.Is(err, ErrFormatMismatch) {
		t.Fatalf("parallel decoder accepted a version-1 stream: %v", err)
	}

	// The stream round-trips through the parallel decoder with the order
	// preserved.
	par, err := DecodeAllParallel(bytes.NewReader(raw), 4)
	if err != nil {
		t.Fatalf("parallel decode: %v", err)
	}
	if len(par) != len(decoded) {
		t.Fatalf("parallel decoded %d entries, want %d", len(par), len(decoded))
	}
	for i := range par {
		if par[i].Seq != decoded[i].Seq || par[i].Method != decoded[i].Method {
			t.Fatalf("parallel decode out of order at %d: %+v vs %+v", i, par[i], decoded[i])
		}
	}
}

func addSeeds(f *testing.F) {
	f.Add(int32(1), uint8(0), "Insert", "lbl", "s", int64(42), []byte{1, 2}, true, "overflow", "bump", int64(-7))
	f.Add(int32(-9), uint8(3), "", "", "", int64(0), []byte(nil), false, "", "", int64(1))
	f.Add(int32(7), uint8(255), "Delete\x00x", "π", "日本", int64(-1), []byte("gob"), true, "r", "sclear", int64(1<<40))
}

// FuzzEntryRoundTrip exercises the stream codec (format version 3).
func FuzzEntryRoundTrip(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, tid int32, kind uint8, method, label, sarg string, iarg int64,
		barg []byte, flag bool, reason string, wop string, wargs int64) {
		roundTrip(t, fuzzEntries(tid, kind, method, label, sarg, iarg, barg, flag, reason, wop, wargs))
	})
}
