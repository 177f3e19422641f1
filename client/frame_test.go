package client

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"autostats/internal/protocol"
)

func execFrame(t *testing.T, id uint64, cell string, rows int) ([]byte, *protocol.Response) {
	t.Helper()
	resp := &protocol.Response{ID: id, Exec: &protocol.ExecResult{Columns: []string{"t.a", "t.b"}, ExecCost: float64(id)}}
	for i := 0; i < rows; i++ {
		resp.Exec.Rows = append(resp.Exec.Rows, []string{cell, "'" + cell + "'"})
	}
	frame, err := protocol.EncodeFrame(resp, 0)
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
		fr := frameReader{r: r}
		p1, err := fr.next()
		if err != nil {
			t.Fatalf("%s: first frame: %v", name, err)
		}
		got1, err := protocol.DecodeResponse(p1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			p1[i] = 'x' // the payload is the reader's again; the next frame may land here
		}
		buf := &fr.buf[0]
		p2, err := fr.next()
		if err != nil {
			t.Fatalf("%s: second frame: %v", name, err)
		}
		got2, err := protocol.DecodeResponse(p2)
		if err != nil {
			t.Fatal(err)
		}
		if &fr.buf[0] != buf {
			t.Errorf("%s: the second frame was read into a new buffer", name)
		}
		if !reflect.DeepEqual(got1, want1) || !reflect.DeepEqual(got2, want2) {
			t.Fatalf("%s: results damaged by buffer reuse:\n%+v\n%+v", name, got1.Exec, got2.Exec)
		}
		if _, err := fr.next(); err != io.EOF {
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
	fr := frameReader{r: iotest.HalfReader(bytes.NewReader(append(append(append([]byte(nil), small...), big...), small...)))}
	for i, want := range []*protocol.Response{wantSmall, wantBig, wantSmall} {
		p, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, err := protocol.DecodeResponse(p); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d decoded wrongly (err %v)", i, err)
		}
	}
	if _, err := fr.next(); err != io.EOF || len(fr.buf) > keepReadBuf {
		t.Fatalf("after the big frame: err %v, buffer %d bytes, want io.EOF and at most %d", err, len(fr.buf), keepReadBuf)
	}
}

// TestFrameReaderRejectsBeforeReading: the length prefix is judged when the
// header is in, before any of the payload it announces is asked for; and a
// stream that ends inside a frame is an unexpected EOF, not a clean one.
func TestFrameReaderRejectsBeforeReading(t *testing.T) {
	frame, _ := execFrame(t, 1, "cell", 100)
	src := bytes.NewReader(frame)
	fr := frameReader{r: io.MultiReader(io.LimitReader(src, 4), src), maxFrame: 64}
	if _, err := fr.next(); !errors.Is(err, protocol.ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	if src.Len() != len(frame)-4 {
		t.Fatalf("%d payload bytes were read past the rejected header", len(frame)-4-src.Len())
	}
	for cut := 1; cut < len(frame); cut += 97 {
		fr := frameReader{r: bytes.NewReader(frame[:cut])}
		if _, err := fr.next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}
