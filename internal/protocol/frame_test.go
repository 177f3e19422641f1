package protocol

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func execFrame(t *testing.T, id uint64, cell string, rows int) ([]byte, *Response) {
	t.Helper()
	resp := &Response{ID: id, Exec: &ExecResult{Columns: []string{"t.a", "t.b"}, ExecCost: float64(id)}}
	for i := 0; i < rows; i++ {
		resp.Exec.Rows = append(resp.Exec.Rows, []string{cell, "'" + cell + "'"})
	}
	frame, err := EncodeFrame(resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	return frame, resp
}

// TestFrameReaderReusesBufferWithoutAliasing: two frames read through the one
// buffer come back as two independent results — the second frame overwrites
// the bytes the first was decoded from, and the first result is still whole.
func TestFrameReaderReusesBufferWithoutAliasing(t *testing.T) {
	f1, want1 := execFrame(t, 1, "first", 40)
	f2, want2 := execFrame(t, 2, "other", 40)
	// With one byte per Read the second frame lands where the first was.
	for name, r := range map[string]io.Reader{
		"whole":  bytes.NewReader(append(append([]byte(nil), f1...), f2...)),
		"1 byte": iotest.OneByteReader(bytes.NewReader(append(append([]byte(nil), f1...), f2...))),
	} {
		fr := NewFrameReader(r, 0)
		p1, err := fr.Next()
		if err != nil {
			t.Fatalf("%s: first frame: %v", name, err)
		}
		got1, err := DecodeResponse(p1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			p1[i] = 'x' // the payload is the reader's again; the next frame may land here
		}
		buf := &fr.buf[0]
		p2, err := fr.Next()
		if err != nil {
			t.Fatalf("%s: second frame: %v", name, err)
		}
		got2, err := DecodeResponse(p2)
		if err != nil {
			t.Fatal(err)
		}
		if &fr.buf[0] != buf {
			t.Errorf("%s: the second frame was read into a new buffer", name)
		}
		if !reflect.DeepEqual(got1, want1) || !reflect.DeepEqual(got2, want2) {
			t.Fatalf("%s: results damaged by buffer reuse:\n%+v\n%+v", name, got1.Exec, got2.Exec)
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

// TestFrameReaderGrowsAndLetsGo: a frame larger than the buffer grows it, a
// later small frame finds the large buffer dropped again.
func TestFrameReaderGrowsAndLetsGo(t *testing.T) {
	big, wantBig := execFrame(t, 1, strings.Repeat("wide ", 100), 400)
	small, wantSmall := execFrame(t, 2, "s", 1)
	if len(big) < keepReadBuf {
		t.Fatalf("test frame of %d bytes does not exceed keepReadBuf", len(big))
	}
	fr := NewFrameReader(iotest.HalfReader(bytes.NewReader(append(append(append([]byte(nil), small...), big...), small...))), 0)
	for i, want := range []*Response{wantSmall, wantBig, wantSmall} {
		p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, err := DecodeResponse(p); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d decoded wrongly (err %v)", i, err)
		}
	}
	if _, err := fr.Next(); err != io.EOF || len(fr.buf) > keepReadBuf {
		t.Fatalf("after the big frame: err %v, buffer %d bytes, want io.EOF and at most %d", err, len(fr.buf), keepReadBuf)
	}
}

// TestFrameReaderRejectsBeforeReading: the length prefix is judged when the
// header is in, before any of the payload it announces is asked for; and a
// stream that ends inside a frame is an unexpected EOF, not a clean one.
func TestFrameReaderRejectsBeforeReading(t *testing.T) {
	frame, _ := execFrame(t, 1, "cell", 100)
	src := bytes.NewReader(frame)
	fr := NewFrameReader(headerFirst(src), 64)
	if _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	if src.Len() != len(frame)-4 {
		t.Fatalf("%d payload bytes were read past the rejected header", len(frame)-4-src.Len())
	}
	for cut := 1; cut < len(frame); cut += 97 {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]), 0)
		if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}
