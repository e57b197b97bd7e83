package event

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
)

// Parallel offline decode. Offline replay used to interleave decode with
// checking on one goroutine; here the stages split:
// a reader goroutine scans frame boundaries (length prefixes only — no
// entry decoding) and slices the stream into batches, a bounded worker pool
// decodes batches concurrently, and the caller consumes batches strictly in
// stream order, so the necessarily-sequential checker still sees the total
// order of the log. Scanning boundaries without decoding is what framing
// every record independently buys.

// ErrStop is returned by a StreamParallel callback to stop the stream early
// without reporting an error.
var ErrStop = errors.New("event: stop streaming")

// batch thresholds: big enough to amortize channel hops, small enough to
// keep all workers busy on mid-sized logs.
const (
	batchBytes  = 128 << 10
	batchFrames = 2048
)

type decBatch struct {
	raw     []byte  // concatenated frames (payload, plus checksum when crc)
	bounds  []int   // frame end offsets into raw
	entries []Entry // decoded by a worker
	crc     bool    // version-3 stream: frames checksummed, markers present
	err     error
	done    chan struct{}
}

// StreamParallel decodes a log stream with a pool of decode
// workers, invoking fn for every entry in stream order on the calling
// goroutine. workers <= 0 uses GOMAXPROCS. If fn returns ErrStop the stream
// stops cleanly with a nil error; any other fn error aborts and is
// returned.
func StreamParallel(r io.Reader, workers int, fn func(Entry) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<20)
	}
	crc, err := readHeader(br)
	if err != nil {
		if err == io.EOF {
			return nil // empty stream: no entries
		}
		return err
	}
	if workers == 1 {
		return streamSequential(br, crc, fn)
	}

	jobs := make(chan *decBatch, workers)      // workers pull here
	ordered := make(chan *decBatch, workers*2) // caller consumes in read order
	free := make(chan *decBatch, workers*2+2)  // recycled batches
	var stop atomic.Bool
	var readErr error

	for i := 0; i < workers; i++ {
		go func() {
			for b := range jobs {
				decodeBatch(b)
				close(b.done)
			}
		}()
	}
	go func() {
		defer close(jobs)
		defer close(ordered)
		for !stop.Load() {
			var b *decBatch
			select {
			case b = <-free:
				b.raw, b.bounds, b.entries, b.err = b.raw[:0], b.bounds[:0], b.entries[:0], nil
			default:
				b = &decBatch{}
			}
			b.done = make(chan struct{})
			b.crc = crc
			eof, err := fillBatch(br, b)
			if err != nil {
				readErr = err
				return
			}
			if len(b.bounds) > 0 {
				jobs <- b
				ordered <- b
			}
			if eof {
				return
			}
		}
	}()

	err = nil
	for b := range ordered {
		<-b.done
		if err == nil {
			if b.err != nil {
				err = b.err
				stop.Store(true)
			} else {
				for i := range b.entries {
					if ferr := fn(b.entries[i]); ferr != nil {
						err = ferr
						stop.Store(true)
						break
					}
				}
			}
		}
		select {
		case free <- b:
		default:
		}
	}
	if err == ErrStop {
		err = nil
	}
	if err == nil {
		err = readErr
	}
	return err
}

// streamSequential is the workers==1 shortcut: plain decode loop, no
// goroutines.
func streamSequential(br *bufio.Reader, crc bool, fn func(Entry) error) error {
	var scratch []byte
	for {
		payload, err := readFrame(br, &scratch, crc)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if crc && isSyncMarker(payload) {
			if _, ok := decodeSyncMarker(payload); !ok {
				return fmt.Errorf("event: malformed sync marker frame")
			}
			continue
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
}

// fillBatch reads frames into b until a size threshold or EOF. It reports
// eof=true at a clean end of stream and errors on truncated frames. The
// reader only scans length prefixes; checksum verification (like entry
// decoding) is deferred to the workers.
func fillBatch(br *bufio.Reader, b *decBatch) (eof bool, err error) {
	for len(b.raw) < batchBytes && len(b.bounds) < batchFrames {
		size, err := readUvarint(br)
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("event: read frame length: %w", err)
		}
		if size > maxFrameSize {
			return false, fmt.Errorf("event: frame length %d exceeds limit %d (corrupt stream?)", size, maxFrameSize)
		}
		if b.crc {
			size += frameCRCSize
		}
		start := len(b.raw)
		if uint64(cap(b.raw)-start) < size {
			grown := make([]byte, start, start+int(size)+batchBytes/4)
			copy(grown, b.raw)
			b.raw = grown
		}
		b.raw = b.raw[:start+int(size)]
		if _, err := io.ReadFull(br, b.raw[start:]); err != nil {
			return false, fmt.Errorf("event: read frame payload: %w", err)
		}
		b.bounds = append(b.bounds, len(b.raw))
	}
	return false, nil
}

// decodeBatch decodes every frame in b.raw into b.entries, verifying
// checksums and dropping sync markers on version-3 batches.
func decodeBatch(b *decBatch) {
	if cap(b.entries) < len(b.bounds) {
		b.entries = make([]Entry, 0, len(b.bounds))
	}
	start := 0
	for _, end := range b.bounds {
		payload := b.raw[start:end]
		start = end
		if b.crc {
			n := len(payload) - frameCRCSize
			if n < 0 {
				b.err = fmt.Errorf("event: frame shorter than its checksum")
				return
			}
			if err := verifyFrameCRC(payload[:n], payload[n:]); err != nil {
				b.err = err
				return
			}
			payload = payload[:n]
			if isSyncMarker(payload) {
				if _, ok := decodeSyncMarker(payload); !ok {
					b.err = fmt.Errorf("event: malformed sync marker frame")
					return
				}
				continue
			}
		}
		e, err := decodeEntry(payload)
		if err != nil {
			b.err = err
			return
		}
		b.entries = append(b.entries, e)
	}
}

// DecodeAllParallel reads every entry of a log stream using a
// parallel decode pool, preserving stream order.
func DecodeAllParallel(r io.Reader, workers int) ([]Entry, error) {
	var entries []Entry
	err := StreamParallel(r, workers, func(e Entry) error {
		entries = append(entries, e)
		return nil
	})
	return entries, err
}
