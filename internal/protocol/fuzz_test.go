package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzDecodeFrame throws arbitrary byte streams at the frame decoder — the
// exact bytes a hostile or broken peer could put on a connection. The
// invariants under fuzz:
//
//   - neither DecodeFrame nor FrameReader ever panics;
//   - a FrameReader over the same bytes, fed whole or one byte per Read,
//     agrees with DecodeFrame frame by frame: the same payloads, then
//     ErrFrameTooLarge at the same frame, io.ErrUnexpectedEOF where
//     DecodeFrame reports a short frame, or io.EOF where the bytes end
//     between frames — so the stream reader adds no grammar of its own;
//   - a declared length above the cap is rejected without consuming payload
//     bytes, and a successfully decoded payload round-trips through
//     appendFrame byte-for-byte;
//   - decoding a payload as a request returns, never hangs or panics.
//
// The checked-in corpus under testdata/fuzz/FuzzDecodeFrame seeds the
// interesting shapes: valid frames, truncated header, truncated payload,
// oversized length, zero-length payload, and non-JSON payload bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendFrame(nil, []byte(`{"id":1,"op":"hello","version":1}`)))
	f.Add(appendFrame(nil, []byte(``)))
	f.Add([]byte{0, 0})                   // short header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add([]byte{0, 0, 0, 8, 'p', 'a'})   // truncated payload
	f.Add(appendFrame(nil, []byte("not json")))
	valid := appendFrame(nil, []byte(`{"id":9,"op":"exec","tenant":"t","sql":"SELECT 1"}`))
	f.Add(append(valid, valid...)) // two frames back to back

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data) // read one byte at a time
		readers := map[string]*FrameReader{
			"whole":  NewFrameReader(bytes.NewReader(data), maxFrame),
			"1 byte": NewFrameReader(iotest.OneByteReader(src), maxFrame),
		}
		buf := data
		for {
			payload, rest, err := DecodeFrame(buf, maxFrame)
			var want error
			switch {
			case err == nil:
			case errors.Is(err, errShortFrame) && len(buf) == 0:
				want = io.EOF
			case errors.Is(err, errShortFrame):
				want = io.ErrUnexpectedEOF
			case errors.Is(err, ErrFrameTooLarge):
				want = ErrFrameTooLarge
			default:
				t.Fatalf("unexpected DecodeFrame error %v", err)
			}
			for name, fr := range readers {
				sp, serr := fr.Next()
				if !errors.Is(serr, want) {
					t.Fatalf("%s: frame at %d: reader %v, DecodeFrame %v", name, len(data)-len(buf), serr, err)
				}
				if want == nil && !bytes.Equal(payload, sp) {
					t.Fatalf("%s: payload disagreement: %q vs %q", name, sp, payload)
				}
			}
			if want == ErrFrameTooLarge {
				// Read a byte at a time, the reader stopped at the header.
				if consumed := len(data) - src.Len(); consumed != len(data)-len(buf)+headerSize {
					t.Fatalf("oversized frame at %d: %d bytes read, want the header only", len(data)-len(buf), consumed)
				}
			}
			if err != nil {
				return
			}
			if len(payload)+headerSize+len(rest) != len(buf) {
				t.Fatalf("frame accounting: %d payload + %d rest != %d input",
					len(payload), len(rest), len(buf))
			}
			// Round-trip: re-encoding the payload reproduces the consumed bytes.
			if re := appendFrame(nil, payload); !bytes.Equal(re, buf[:len(buf)-len(rest)]) {
				t.Fatalf("re-encode mismatch")
			}
			// Decoding a payload as a request must return without panicking;
			// errors are fine (that is CodeBadRequest territory, not a crash).
			_, _ = DecodeRequest(payload)
			buf = rest
		}
	})
}

// FuzzResponseCodec throws arbitrary payloads at DecodeResponse with
// encoding/json as the reference (checkDecode): it never panics, it fails
// exactly when json.Unmarshal fails, a payload both accept decodes to deeply
// equal values, and re-encoding that value with AppendResponse reproduces
// json.Marshal byte for byte. The seeds are TestResponseCodecMatchesJSON's
// table; the checked-in corpus under testdata/fuzz/FuzzResponseCodec keeps
// the shapes at the edge of the walker's grammar.
func FuzzResponseCodec(f *testing.F) {
	for _, r := range codecResponses {
		payload, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, p := range codecPayloads {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecode(t, payload)
	})
}
