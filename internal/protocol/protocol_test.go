package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// appendFrame appends payload to dst as one frame, built by hand — its length,
// big endian, then its bytes — so the tests can frame any payload at all.
func appendFrame(dst, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(payload))), payload...)
}

func TestRequestRoundTrip(t *testing.T) {
	in := &Request{
		ID:     42,
		Op:     OpTune,
		Tenant: "acme",
		SQLs:   []string{"SELECT * FROM lineitem WHERE l_quantity > 45"},
		Tune:   &TuneParams{ThresholdPct: 10, Shrink: true},
	}
	frame, err := EncodeFrame(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := NewFrameReader(bytes.NewReader(frame), 0).Next()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Op != in.Op || out.Tenant != in.Tenant {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
	if len(out.SQLs) != 1 || out.SQLs[0] != in.SQLs[0] {
		t.Fatalf("SQLs lost: %+v", out.SQLs)
	}
	if out.Tune == nil || *out.Tune != *in.Tune {
		t.Fatalf("tune params lost: %+v", out.Tune)
	}
}

func TestResponseRoundTripAndErr(t *testing.T) {
	in := &Response{
		ID:   7,
		Exec: &ExecResult{Columns: []string{"a.b"}, Rows: [][]string{{"1"}}, ExecCost: 3.5},
	}
	frame, err := EncodeFrame(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := NewFrameReader(bytes.NewReader(frame), 0).Next()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Exec == nil || out.Exec.ExecCost != 3.5 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if out.Err() != nil {
		t.Fatalf("success response reported error %v", out.Err())
	}

	if err := ErrResponse(9, CodeOverloaded, "busy").Err(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded code should map to ErrOverloaded, got %v", err)
	}
	if err := ErrResponse(9, CodeDraining, "bye").Err(); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining code should map to ErrDraining, got %v", err)
	}
	if err := ErrResponse(9, CodeSQL, "boom").Err(); !errors.Is(err, ErrFailed) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("sql error lost: %v", err)
	}
}

func TestDecodeFrameShortAndOversized(t *testing.T) {
	// Too short for a header.
	if _, _, err := DecodeFrame([]byte{0, 0}, 0); !errors.Is(err, errShortFrame) {
		t.Fatalf("want errShortFrame for short header, got %v", err)
	}
	// Header present, payload truncated.
	frame := appendFrame(nil, []byte(`{"id":1}`))
	if _, _, err := DecodeFrame(frame[:len(frame)-3], 0); !errors.Is(err, errShortFrame) {
		t.Fatalf("want errShortFrame for truncated payload, got %v", err)
	}
	// Oversized declared length is rejected before any payload inspection.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, _, err := DecodeFrame(hdr[:], 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// Two concatenated frames decode in order with the rest returned.
	buf := appendFrame(appendFrame(nil, []byte("one")), []byte("two"))
	p1, rest, err := DecodeFrame(buf, 0)
	if err != nil || string(p1) != "one" {
		t.Fatalf("first frame: %q %v", p1, err)
	}
	p2, rest, err := DecodeFrame(rest, 0)
	if err != nil || string(p2) != "two" || len(rest) != 0 {
		t.Fatalf("second frame: %q rest=%d %v", p2, len(rest), err)
	}
}

// TestReadFrameTruncatedStream: a FrameReader over a stream that ends before
// the first header byte reports a clean io.EOF; one that ends anywhere inside
// the frame reports io.ErrUnexpectedEOF.
func TestReadFrameTruncatedStream(t *testing.T) {
	frame := appendFrame(nil, []byte(`{"id":1,"op":"hello"}`))
	for cut := 0; cut < len(frame); cut++ {
		_, err := NewFrameReader(bytes.NewReader(frame[:cut]), 0).Next()
		if cut == 0 {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("cut=0: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// headerFirst delivers the four header bytes of r in a read of their own, as
// a slow peer would, so a test can see that nothing past them was read.
func headerFirst(r io.Reader) io.Reader {
	return io.MultiReader(io.LimitReader(r, headerSize), r)
}

// TestReadFrameOversizedDoesNotRead: a FrameReader rejects a length prefix
// above the cap as soon as the header is in, without reading the payload.
func TestReadFrameOversizedDoesNotRead(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(DefaultMaxFrame+1))
	r := bytes.NewReader(append(hdr[:], bytes.Repeat([]byte{'x'}, 64)...))
	if _, err := NewFrameReader(headerFirst(r), 0).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// The payload must not have been consumed: the cap check happens first.
	if r.Len() != 64 {
		t.Fatalf("oversized frame consumed payload bytes: %d left", r.Len())
	}
}

func TestEncodeFrameRespectsCap(t *testing.T) {
	big := &Response{ID: 1, Metrics: strings.Repeat("m", 1024)}
	if _, err := EncodeFrame(big, 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge from encode, got %v", err)
	}
}

func TestResponseErrRateLimitedAndTimeout(t *testing.T) {
	if err := ErrResponse(3, CodeRateLimited, "quota").Err(); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("rate_limited code should map to ErrRateLimited, got %v", err)
	}
	if err := ErrResponse(4, CodeTimeout, "deadline").Err(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout code should map to ErrTimeout, got %v", err)
	}
}

// TestDecodeFrameAtMaxFrameBoundary pins the length-prefix edge cases: a
// payload of exactly DefaultMaxFrame decodes, one byte more is rejected by
// both DecodeFrame and a FrameReader, and the declared-length check uses
// the payload length alone (the 4 header bytes never count against the cap).
func TestDecodeFrameAtMaxFrameBoundary(t *testing.T) {
	exact := make([]byte, DefaultMaxFrame)
	for i := range exact {
		exact[i] = byte('a' + i%26)
	}
	frame := appendFrame(nil, exact)

	payload, rest, err := DecodeFrame(frame, DefaultMaxFrame)
	if err != nil || len(payload) != DefaultMaxFrame || len(rest) != 0 {
		t.Fatalf("exactly-max frame: len=%d rest=%d err=%v", len(payload), len(rest), err)
	}
	if sp, serr := NewFrameReader(bytes.NewReader(frame), DefaultMaxFrame).Next(); serr != nil || len(sp) != DefaultMaxFrame {
		t.Fatalf("exactly-max stream frame: len=%d err=%v", len(sp), serr)
	}

	// One past the cap: rejected before any payload is consumed.
	over := appendFrame(nil, append(exact, 'z'))
	if _, _, err := DecodeFrame(over, DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("max+1 buffered: want ErrFrameTooLarge, got %v", err)
	}
	r := bytes.NewReader(over)
	if _, err := NewFrameReader(headerFirst(r), DefaultMaxFrame).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("max+1 stream: want ErrFrameTooLarge, got %v", err)
	}
	if r.Len() != DefaultMaxFrame+1 {
		t.Fatalf("max+1 stream consumed payload bytes: %d left, want %d", r.Len(), DefaultMaxFrame+1)
	}
}

// TestMalformedPayloadsAreTyped: a payload that is not the expected message
// is reported as ErrMalformed by both decoders, with the decoder's own error
// still in the chain; a frame cut short by the stream is not malformed.
func TestMalformedPayloadsAreTyped(t *testing.T) {
	payload := []byte("not json")
	var syntax *json.SyntaxError
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrMalformed) || !errors.As(err, &syntax) {
		t.Fatalf("DecodeRequest: %v, want ErrMalformed wrapping a json.SyntaxError", err)
	}
	if _, err := DecodeResponse(payload); !errors.Is(err, ErrMalformed) || !errors.As(err, &syntax) {
		t.Fatalf("DecodeResponse: %v, want ErrMalformed wrapping a json.SyntaxError", err)
	}
	// A transport failure is not a malformed message.
	frame := appendFrame(nil, payload)
	if _, err := NewFrameReader(bytes.NewReader(frame[:6]), 0).Next(); errors.Is(err, ErrMalformed) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
}
