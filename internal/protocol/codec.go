package protocol

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The Response codec. A response payload is, byte for byte, what
// encoding/json produces for the Response struct — that is the wire format
// and it does not change here. What changes is who produces and consumes it:
// AppendResponse writes those bytes into a caller-owned buffer without
// reflection, and DecodeResponse walks them with one copy of the payload and
// one []string for every cell of a result. Anything the walker does not
// recognise as the encoder's own output goes to encoding/json, which stays
// the definition of what a valid payload is.

// AppendResponse appends the JSON encoding of r to dst and returns the
// extended buffer. The bytes are exactly json.Marshal(r): same key order and
// omitempty rules, the same string escapes (HTML characters, U+2028/U+2029,
// control bytes, invalid UTF-8 as the six bytes \ufffd) and the same float
// format. Like json.Marshal it fails on a NaN or infinite cost; dst is then
// returned at its original length.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	out := strconv.AppendUint(append(dst, `{"id":`...), r.ID, 10)
	if r.Code != "" {
		out = appendString(append(out, `,"code":`...), r.Code)
	}
	if r.Error != "" {
		out = appendString(append(out, `,"error":`...), r.Error)
	}
	var err error
	if r.Hello != nil {
		out, err = appendMarshaled(append(out, `,"hello":`...), r.Hello)
	}
	if err == nil && r.Exec != nil {
		out, err = appendExec(append(out, `,"exec":`...), r.Exec)
	}
	if r.Plan != "" {
		out = appendString(append(out, `,"plan":`...), r.Plan)
	}
	if err == nil && r.Tune != nil {
		out, err = appendMarshaled(append(out, `,"tune":`...), r.Tune)
	}
	if err == nil && len(r.Stats) > 0 {
		out, err = appendMarshaled(append(out, `,"stats":`...), r.Stats)
	}
	if err == nil && r.Maintain != nil {
		out, err = appendMarshaled(append(out, `,"maintain":`...), r.Maintain)
	}
	if err != nil {
		return dst, err
	}
	if r.Metrics != "" {
		out = appendString(append(out, `,"metrics":`...), r.Metrics)
	}
	return append(out, '}'), nil
}

// appendMarshaled appends json.Marshal(v): the small members no serving
// statement carries (hello, tune, stats, maintain) stay on encoding/json.
func appendMarshaled(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

func appendExec(dst []byte, e *ExecResult) ([]byte, error) {
	dst = append(dst, '{')
	if len(e.Columns) > 0 {
		dst = append(appendStrings(append(dst, `"columns":`...), e.Columns), ',')
	}
	if len(e.Rows) > 0 {
		dst = append(dst, `"rows":[`...)
		for i, row := range e.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(dst, row)
		}
		dst = append(dst, ']', ',')
	}
	dst, err := appendFloat(append(dst, `"exec_cost":`...), e.ExecCost)
	if err == nil && e.EstimatedCost != 0 {
		dst, err = appendFloat(append(dst, `,"estimated_cost":`...), e.EstimatedCost)
	}
	if err != nil {
		return dst, err
	}
	if e.Plan != "" {
		dst = appendString(append(dst, `,"plan":`...), e.Plan)
	}
	if e.Affected != 0 {
		dst = strconv.AppendInt(append(dst, `,"affected":`...), int64(e.Affected), 10)
	}
	if len(e.Degraded) > 0 {
		dst = appendStrings(append(dst, `,"degraded":`...), e.Degraded)
	}
	return append(dst, '}'), nil
}

// appendStrings appends ss as a JSON array of strings (null for a nil slice).
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat appends f the way encoding/json formats a float64: 'f' unless
// the exponent is below -6 or at least 21, then 'e' with a two-digit
// exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// verbatim[b] reports whether encoding/json writes byte b of a string as
// itself: printable ASCII except the quote, the backslash and the three
// characters its default HTML escaping rewrites.
var verbatim = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal, escaping exactly what
// encoding/json escapes.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if verbatim[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// sizeHint estimates the encoded length of r from the lengths of its
// strings, so that a one-shot encode allocates its buffer once; escapes make
// the real length larger and append then grows the buffer as usual.
func sizeHint(r *Response) int {
	n := 128 + len(r.Code) + len(r.Error) + len(r.Plan) + len(r.Metrics)
	if e := r.Exec; e != nil {
		n += len(e.Plan) + 128
		for _, c := range e.Columns {
			n += len(c) + 3
		}
		for _, row := range e.Rows {
			n += 2 + 3*len(row)
			for _, c := range row {
				n += len(c)
			}
		}
	}
	return n
}

// DecodeResponse decodes one response payload. The result never aliases
// payload: the bytes are copied once, into a string, and every plain cell of
// an exec result is a substring of that copy, all of them held in one
// []string of which each row is a capped sub-slice. A caller that keeps a
// single cell beyond the result it came from should strings.Clone it, or the
// whole payload stays reachable.
//
// Only the frame AppendResponse emits takes that path. Any other payload —
// unknown, re-ordered, repeated or differently cased keys, null, whitespace,
// the hello, tune, stats and maintain members — is decoded by json.Unmarshal,
// so encoding/json alone decides what is valid and unknown fields are still
// ignored. A payload it rejects is reported wrapped in ErrMalformed.
func DecodeResponse(payload []byte) (*Response, error) {
	w := walker{s: string(payload)}
	if resp, ok := w.response(); ok {
		return resp, nil
	}
	resp := new(Response)
	if err := json.Unmarshal(payload, resp); err != nil {
		return nil, fmt.Errorf("%w response: %w", ErrMalformed, err)
	}
	return resp, nil
}

// walker reads the canonical encoding of a Response out of s. Every method
// reports ok == false on the first byte it does not expect; the caller then
// discards the partial result and hands the payload to encoding/json, so the
// walker has to be right only about what it accepts, and there it must agree
// with json.Unmarshal (FuzzResponseCodec holds it to that).
type walker struct {
	s string
	i int
	// cells backs every []string of the exec result being read.
	cells []string
	// scratch is reused to unquote strings that carry escapes.
	scratch []byte
}

func (w *walker) lit(t string) bool {
	if strings.HasPrefix(w.s[w.i:], t) {
		w.i += len(t)
		return true
	}
	return false
}

func (w *walker) byte(c byte) bool {
	if w.i < len(w.s) && w.s[w.i] == c {
		w.i++
		return true
	}
	return false
}

func (w *walker) response() (*Response, bool) {
	r := new(Response)
	ok := w.lit(`{"id":`)
	if ok {
		var err error
		r.ID, err = strconv.ParseUint(w.number(false), 10, 64)
		ok = err == nil
	}
	if ok && w.lit(`,"code":`) {
		r.Code, ok = w.str()
	}
	if ok && w.lit(`,"error":`) {
		r.Error, ok = w.str()
	}
	if ok && w.lit(`,"exec":`) {
		r.Exec, ok = w.exec()
	}
	if ok && w.lit(`,"plan":`) {
		r.Plan, ok = w.str()
	}
	if ok && w.lit(`,"metrics":`) {
		r.Metrics, ok = w.str()
	}
	return r, ok && w.byte('}') && w.i == len(w.s)
}

func (w *walker) exec() (*ExecResult, bool) {
	e := new(ExecResult)
	// Every string of the result is delimited by two quotes, so half the
	// quotes left in the payload bound the cells, columns and reasons.
	w.cells = make([]string, 0, strings.Count(w.s[w.i:], `"`)/2)
	ok := w.byte('{')
	if ok && w.lit(`"columns":`) {
		e.Columns, ok = w.strs()
		ok = ok && w.byte(',')
	}
	if ok && w.lit(`"rows":`) {
		e.Rows, ok = w.rows()
		ok = ok && w.byte(',')
	}
	ok = ok && w.lit(`"exec_cost":`)
	if ok {
		e.ExecCost, ok = w.float()
	}
	if ok && w.lit(`,"estimated_cost":`) {
		e.EstimatedCost, ok = w.float()
	}
	if ok && w.lit(`,"plan":`) {
		e.Plan, ok = w.str()
	}
	if ok && w.lit(`,"affected":`) {
		var err error
		e.Affected, err = strconv.Atoi(w.number(false))
		ok = err == nil
	}
	if ok && w.lit(`,"degraded":`) {
		e.Degraded, ok = w.strs()
	}
	return e, ok && w.byte('}')
}

func (w *walker) rows() ([][]string, bool) {
	if !w.byte('[') {
		return nil, false
	}
	// A row costs at least "[]" and a separator, and opens with a bracket.
	rest := w.s[w.i:]
	rows := make([][]string, 0, min(strings.Count(rest, "["), len(rest)/3+1))
	if w.byte(']') {
		return rows, true
	}
	for {
		row, ok := w.strs()
		if !ok {
			return nil, false
		}
		rows = append(rows, row)
		if w.byte(']') {
			return rows, true
		}
		if !w.byte(',') {
			return nil, false
		}
	}
}

// strs reads an array of strings into w.cells and returns it as a sub-slice
// capped at its own length, so that appending to one row cannot write into
// the next.
func (w *walker) strs() ([]string, bool) {
	if !w.byte('[') {
		return nil, false
	}
	start := len(w.cells)
	if !w.byte(']') {
		for {
			c, ok := w.str()
			if !ok {
				return nil, false
			}
			w.cells = append(w.cells, c)
			if w.byte(']') {
				break
			}
			if !w.byte(',') {
				return nil, false
			}
		}
	}
	return w.cells[start:len(w.cells):len(w.cells)], true
}

// number returns the JSON number literal at the cursor — with a fraction and
// exponent only if frac is set — or "" if there is none. strconv parses more
// than JSON allows, so the grammar is checked here.
func (w *walker) number(frac bool) string {
	s, j := w.s, w.i
	digits := func() bool {
		k := j
		for j < len(s) && s[j]-'0' <= 9 {
			j++
		}
		return j > k
	}
	if j < len(s) && s[j] == '-' {
		j++
	}
	if j < len(s) && s[j] == '0' {
		j++
	} else if !digits() {
		return ""
	}
	if frac && j < len(s) && s[j] == '.' {
		j++
		if !digits() {
			return ""
		}
	}
	if frac && j < len(s) && s[j]|0x20 == 'e' {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if !digits() {
			return ""
		}
	}
	tok := s[w.i:j]
	w.i = j
	return tok
}

func (w *walker) float() (float64, bool) {
	f, err := strconv.ParseFloat(w.number(true), 64)
	return f, err == nil
}

// str reads a string literal. One made only of bytes the encoder writes
// verbatim — every cell the facade renders from ASCII data — is returned as a
// substring of the payload copy.
func (w *walker) str() (string, bool) {
	s := w.s
	if w.i >= len(s) || s[w.i] != '"' {
		return "", false
	}
	start := w.i + 1
	for j := start; j < len(s); j++ {
		if c := s[j]; verbatim[c] {
			continue
		} else if c == '"' {
			w.i = j + 1
			return s[start:j], true
		}
		return w.unquote(start, j)
	}
	return "", false
}

// unquote finishes str for a literal whose bytes from j on need a closer
// look, following encoding/json's unquote: escapes are decoded, a lone or
// mismatched \u surrogate and every invalid UTF-8 byte become U+FFFD, a raw
// control byte or an unknown escape is an error. A literal that comes out
// unchanged (valid non-ASCII text) is still returned as a substring.
func (w *walker) unquote(start, j int) (string, bool) {
	s := w.s
	buf := w.scratch[:0]
	copied := start // s[copied:j] is verbatim text not yet appended to buf
	changed := false
	for j < len(s) {
		switch c := s[j]; {
		case c == '"':
			w.i = j + 1
			if !changed {
				return s[start:j], true
			}
			buf = append(buf, s[copied:j]...)
			w.scratch = buf
			return string(buf), true
		case c == '\\':
			buf = append(buf, s[copied:j]...)
			changed = true
			j++
			if j >= len(s) {
				return "", false
			}
			switch s[j] {
			case '"', '\\', '/':
				buf = append(buf, s[j])
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(s[j+1:])
				if r < 0 {
					return "", false
				}
				j += 4
				if utf16.IsSurrogate(r) {
					low := rune(-1)
					if strings.HasPrefix(s[j+1:], `\u`) {
						low = hex4(s[j+3:])
					}
					if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
						j += 6 // a valid pair; an invalid second half is read on its own
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return "", false
			}
			j++
			copied = j
		case c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRuneInString(s[j:])
			if r == utf8.RuneError && size == 1 {
				buf = append(append(buf, s[copied:j]...), "\ufffd"...)
				changed = true
				copied = j + 1
			}
			j += size
		}
	}
	return "", false
}

// hex4 returns the value of the four hex digits s starts with, or -1.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(s[:4], 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}
