package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeFrame throws arbitrary byte streams at the frame decoder — the
// exact bytes a hostile or broken peer could put on a connection. The
// invariants under fuzz:
//
//   - neither DecodeFrame nor ReadFrame ever panics;
//   - both agree on every input (same payload or equivalent error), so the
//     buffered and streaming paths cannot drift;
//   - a declared length above the cap is rejected without consuming payload
//     bytes, and a successfully decoded payload round-trips through
//     AppendFrame byte-for-byte;
//   - JSON unmarshalling of a decoded payload returns, never hangs or panics.
//
// The checked-in corpus under testdata/fuzz/FuzzDecodeFrame seeds the
// interesting shapes: valid frames, truncated header, truncated payload,
// oversized length, zero-length payload, and non-JSON payload bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte(`{"id":1,"op":"hello","version":1}`)))
	f.Add(AppendFrame(nil, []byte(``)))
	f.Add([]byte{0, 0})                   // short header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add([]byte{0, 0, 0, 8, 'p', 'a'})   // truncated payload
	f.Add(AppendFrame(nil, []byte("not json")))
	valid := AppendFrame(nil, []byte(`{"id":9,"op":"exec","tenant":"t","sql":"SELECT 1"}`))
	f.Add(append(valid, valid...)) // two frames back to back

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := DecodeFrame(data, maxFrame)
		sp, serr := ReadFrame(bytes.NewReader(data), maxFrame)

		if err != nil {
			switch {
			case errors.Is(err, ErrShortFrame):
				if serr == nil {
					t.Fatalf("DecodeFrame short but ReadFrame succeeded on %q", data)
				}
				if !errors.Is(serr, io.EOF) && !errors.Is(serr, io.ErrUnexpectedEOF) {
					t.Fatalf("short frame: stream error %v, want EOF-ish", serr)
				}
			case errors.Is(err, ErrFrameTooLarge):
				if !errors.Is(serr, ErrFrameTooLarge) {
					t.Fatalf("size-cap disagreement: buffered %v, stream %v", err, serr)
				}
			default:
				t.Fatalf("unexpected DecodeFrame error %v", err)
			}
			return
		}
		if serr != nil {
			t.Fatalf("DecodeFrame ok but ReadFrame failed: %v", serr)
		}
		if !bytes.Equal(payload, sp) {
			t.Fatalf("payload disagreement: %q vs %q", payload, sp)
		}
		if len(payload)+headerSize+len(rest) != len(data) {
			t.Fatalf("frame accounting: %d payload + %d rest != %d input",
				len(payload), len(rest), len(data))
		}
		// Round-trip: re-encoding the payload reproduces the consumed bytes.
		if re := AppendFrame(nil, payload); !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encode mismatch")
		}
		// Unmarshalling a decoded payload must return without panicking;
		// errors are fine (that is CodeBadRequest territory, not a crash).
		var req Request
		_ = json.Unmarshal(payload, &req)
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
