package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// codecResponses is the table the differential test, the fuzz seeds and the
// round-trip checks share: every op's payload, the error shape, and every
// string and number the encoder treats specially.
var codecResponses = []*Response{
	{ID: 1, Hello: &HelloResult{Version: Version, Server: "autostatsd", MaxFrame: DefaultMaxFrame, Tenant: "acme"}},
	{ID: 2, Exec: &ExecResult{
		Columns:       []string{"lineitem.l_orderkey", "lineitem.l_comment"},
		Rows:          [][]string{{"1", "'carefully final'"}, {"2", "NULL"}},
		ExecCost:      1234.5,
		EstimatedCost: 987.25,
		Plan:          "SeqScan(lineitem)\n  filter: l_quantity > 45",
	}},
	{ID: 3, Plan: "IndexScan(orders) cost=12.5"},
	{ID: 4, Tune: &TuneResult{Created: []string{"lineitem(l_quantity)"}, OptimizerCalls: 17, CreationCostUnits: 3.5e6, Degraded: true}},
	{ID: 5, Stats: []StatRow{{ID: "s1", Table: "orders", Columns: []string{"o_orderdate"}, Rows: 1500, Distinct: 366, Buckets: 200, InDropList: true}, {ID: "s2"}}},
	{ID: 6, Maintain: &MaintResult{TablesRefreshed: 2, StatsDropped: 1}},
	{ID: 7, Metrics: "server.admitted 12\nserver.completed 12\n"},
	{ID: 8, Code: CodeSQL, Error: `parse error near "FROM": unexpected <eof> & more`},
	{ID: math.MaxUint64, Code: CodeOverloaded, Error: "worker queue full; retry with backoff"},
	{},
	{ID: 9, Exec: &ExecResult{}},
	{ID: 10, Exec: &ExecResult{ExecCost: 40, Affected: 3, Degraded: []string{"stats build failing: lineitem"}}},
	{ID: 11, Exec: &ExecResult{Columns: []string{"a.b"}, ExecCost: 1}},          // zero rows with columns
	{ID: 12, Exec: &ExecResult{Columns: []string{}, Rows: [][]string{}}},        // empty but non-nil: omitted
	{ID: 13, Exec: &ExecResult{Rows: [][]string{{"1"}, nil, {}, {"2", "3"}}}},   // a nil and an empty row
	{ID: 14, Exec: &ExecResult{Rows: [][]string{{"", " ", "\x7f", "'it''s'"}}}}, // plain edge cells
	{ID: 15, Exec: &ExecResult{Rows: [][]string{{
		`say "hi"`, `back\slash`, "<b>&amp;</b>", "line\nfeed\r\ttab", "nul\x00 bell\x07 \b\f esc\x1b",
		"sep\u2028and\u2029", "Zürich 東京 🙂", "bad\xff utf\xc3", "\xed\xa0\x80", "/slash/",
	}}}},
	{ID: 16, Exec: &ExecResult{ExecCost: 1e21, EstimatedCost: 1e-7}},
	{ID: 17, Exec: &ExecResult{ExecCost: -123456789.125, EstimatedCost: 9.999999e20}},
	{ID: 18, Exec: &ExecResult{ExecCost: 1e-6, EstimatedCost: 1.5e300, Affected: -4}},
	{ID: 19, Exec: &ExecResult{ExecCost: math.Copysign(0, -1), EstimatedCost: 5e-324}},
	{ID: 20, Exec: &ExecResult{ExecCost: 1}, Plan: "both plans", Metrics: "and metrics"},
}

// codecPayloads are payloads no encoder here emits; DecodeResponse must treat
// each exactly as json.Unmarshal does, error or not.
var codecPayloads = []string{
	`{"id":1,"future_field":{"x":[1,2]},"plan":"p"}`,           // unknown field: ignored
	`{"ID":7,"PLAN":"upper-case keys match"}`,                  // case-insensitive match
	`{"id":1,"plan":"first","plan":"second"}`,                  // duplicate key: last wins
	`{"id":1,"exec":{"rows":null,"exec_cost":2}}`,              // null rows
	`{"id":1,"exec":{"rows":[],"exec_cost":2}}`,                // empty, non-nil rows
	`{"id":1,"exec":{"columns":[],"exec_cost":2}}`,             //
	`{"id":1,"exec":{"rows":[[],["a"]],"exec_cost":2}}`,        //
	`{"id":1,"exec":{"rows":[["a"],null],"exec_cost":2}}`,      //
	`{"id":1,"exec":{"exec_cost":2,"rows":[["re-ordered"]]}}`,  //
	`{"id":1,"exec":{"rows":[["a",]],"exec_cost":2}}`,          // trailing comma: error
	`{"id":1,"exec":{"rows":[["a"],],"exec_cost":2}}`,          //
	`{"id":1,"exec":{"rows":[[1]],"exec_cost":2}}`,             // wrong cell type: error
	`{"id":1,"exec":{"rows":[["a"]],"exec_cost":"2"}}`,         //
	`{"id":1,"exec":{"exec_cost":01}}`,                         // not a JSON number
	`{"id":1,"exec":{"exec_cost":1.}}`,                         //
	`{"id":1,"exec":{"exec_cost":.5}}`,                         //
	`{"id":1,"exec":{"exec_cost":+1}}`,                         //
	`{"id":1,"exec":{"exec_cost":1e400}}`,                      // out of range: error
	`{"id":1,"exec":{"exec_cost":-0,"affected":-0}}`,           //
	`{"id":1,"exec":{"exec_cost":1E+2,"estimated_cost":2e-3}}`, //
	`{"id":1,"exec":{"exec_cost":1,"affected":1.0}}`,           // fraction into an int: error
	`{"id":1,"exec":{"exec_cost":1,"affected":9223372036854775808}}`,
	`{"id":18446744073709551616}`, // overflows uint64: error
	`{"id":-1}`,
	`{"id":007}`,
	`{"id":1.0}`,
	`{"id":1,"code":"a\u00e9\ud83d\ude00\ud83d\u0041\ude00\uD83D"}`, // pairs and lone surrogates
	`{"id":1,"code":"\/\b\f\n\r\t\"\\"}`,
	`{"id":1,"code":"\'"}`,                 // not a JSON escape: error
	`{"id":1,"code":"\u12g4"}`,             //
	`{"id":1,"code":"\u12"}`,               //
	`{"id":1,"code":"tab	raw"}`,            // raw control byte: error
	"{\"id\":1,\"code\":\"bad \xff utf\"}", // invalid UTF-8: coerced
	`{"id":1,"code":"unterminated`,
	`{"id":1,"code":"x"} `,
	` {"id":1}`,
	`{"id":1}{"id":2}`,
	`{"id":1,}`,
	`{"id":1,"exec":null,"plan":null,"code":null}`,
	`{"id":1,"hello":{"version":1,"server":"s","max_frame":4}}`,
	`{"id":null}`,
	`{}`,
	`[]`,
	`null`,
	``,
	`not json`,
}

func marshalBoth(t testing.TB, r *Response) (got, want []byte, gotErr, wantErr error) {
	t.Helper()
	want, wantErr = json.Marshal(r)
	prefix := []byte("kept")
	got, gotErr = AppendResponse(prefix, r)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendResponse dropped the bytes already in dst: %q", got)
	}
	return got[len(prefix):], want, gotErr, wantErr
}

// checkDecode holds DecodeResponse to json.Unmarshal on one payload: the same
// verdict, on success a deeply equal value whose encoding again matches
// json.Marshal, and on failure an error classified as ErrMalformed.
func checkDecode(t testing.TB, payload []byte) {
	t.Helper()
	want := new(Response)
	wantErr := json.Unmarshal(payload, want)
	got, gotErr := DecodeResponse(append([]byte(nil), payload...))
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("payload %q: DecodeResponse error %v, json.Unmarshal error %v", payload, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrMalformed) {
			t.Fatalf("payload %q: error %v is not ErrMalformed", payload, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q:\n DecodeResponse %s\n json.Unmarshal %s", payload, dump(got), dump(want))
	}
	w := walker{s: string(payload)}
	if _, walked := w.response(); walked && got.Exec != nil {
		for i, row := range got.Exec.Rows {
			if cap(row) != len(row) {
				t.Fatalf("payload %q: row %d has cap %d > len %d", payload, i, cap(row), len(row))
			}
		}
	}
	re, reWant, reErr, reWantErr := marshalBoth(t, got)
	if (reErr != nil) != (reWantErr != nil) || !bytes.Equal(re, reWant) {
		t.Fatalf("payload %q re-encoded:\n AppendResponse %q, %v\n json.Marshal   %q, %v", payload, re, reErr, reWant, reWantErr)
	}
}

func dump(r *Response) string {
	if r.Exec == nil {
		return fmt.Sprintf("%#v", *r)
	}
	return fmt.Sprintf("%#v exec %#v", *r, *r.Exec)
}

func TestResponseCodecMatchesJSON(t *testing.T) {
	for _, r := range codecResponses {
		got, want, gotErr, wantErr := marshalBoth(t, r)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("response %d: AppendResponse error %v, json.Marshal error %v", r.ID, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("response %d:\n AppendResponse %s\n json.Marshal   %s", r.ID, got, want)
		}
		checkDecode(t, want)
		// Only the members no serving statement carries, and a nil row, may
		// leave the walker for encoding/json.
		w := walker{s: string(want)}
		_, walked := w.response()
		if cold := r.Hello != nil || r.Tune != nil || r.Stats != nil || r.Maintain != nil || r.ID == 13; walked == cold {
			t.Fatalf("response %d: walked = %v", r.ID, walked)
		}
		frame, err := EncodeFrame(r, 0)
		if err != nil || !bytes.Equal(frame, appendFrame(nil, want)) {
			t.Fatalf("response %d: EncodeFrame = %q, %v", r.ID, frame, err)
		}
	}
	for _, p := range codecPayloads {
		checkDecode(t, []byte(p))
	}

	// A cost json.Marshal cannot represent is an error here too, whichever
	// field carries it, and leaves dst as it was.
	for _, r := range []*Response{
		{ID: 1, Exec: &ExecResult{ExecCost: math.NaN()}},
		{ID: 2, Exec: &ExecResult{ExecCost: 1, EstimatedCost: math.Inf(-1)}},
		{ID: 3, Tune: &TuneResult{CreationCostUnits: math.Inf(1)}},
	} {
		got, _, gotErr, wantErr := marshalBoth(t, r)
		var unsupported *json.UnsupportedValueError
		if wantErr == nil || !errors.As(gotErr, &unsupported) || len(got) != 0 {
			t.Fatalf("response %d: AppendResponse = %q, %v; json.Marshal error %v", r.ID, got, gotErr, wantErr)
		}
		if _, err := EncodeFrame(r, 0); err == nil || errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("response %d: EncodeFrame error %v", r.ID, err)
		}
	}
}

// TestDecodeResponseSharing pins what the doc comment promises about memory:
// the result does not alias the payload buffer, and although the rows are
// windows of one backing array, appending to one cannot reach the next.
func TestDecodeResponseSharing(t *testing.T) {
	payload, err := AppendResponse(nil, wideResponse(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeResponse(append([]byte(nil), payload...))
	for i := range payload {
		payload[i] = 'x'
	}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("result changed when its payload buffer was overwritten:\n%s", dump(resp))
	}
	rows := resp.Exec.Rows
	first := rows[1][0]
	rows[0] = append(rows[0], "appended")
	if rows[1][0] != first {
		t.Fatalf("append to row 0 overwrote row 1: %q", rows[1][0])
	}
}

// wideResponse builds a rows x cols result shaped like serve_wide's — keys,
// prices, dates, one-letter flags and a closing comment, all as the facade
// renders them. 390 x 16 comes to 62 KB; the median serve_wide frame is 48.
func wideResponse(rows, cols int) *Response {
	e := &ExecResult{ExecCost: 52340.25, EstimatedCost: 48211.5,
		Plan: "SeqScan(lineitem)\n  filter: l_shipdate BETWEEN DATE 9100 AND DATE 9130"}
	for c := 0; c < cols; c++ {
		e.Columns = append(e.Columns, "lineitem.l_column"+strconv.Itoa(c))
	}
	cells := make([]string, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var cell string
			switch {
			case c == cols-1:
				cell = "'quick final deposits " + strconv.Itoa(r) + "'"
			case c%4 == 0:
				cell = strconv.Itoa(r*7 + c)
			case c%4 == 1:
				cell = strconv.FormatFloat(float64(r%50*c)+0.25, 'g', -1, 64)
			case c%4 == 2:
				cell = "DATE " + strconv.Itoa(9000+r)
			default:
				cell = "'F'"
			}
			cells = append(cells, cell)
		}
		e.Rows = append(e.Rows, cells[r*cols:(r+1)*cols:(r+1)*cols])
	}
	return &Response{ID: 42, Exec: e}
}

// TestResponseCodecAllocs is the layer's invariant, stated as counts rather
// than as a time: encoding into a buffer that is already large enough
// allocates nothing, and decoding allocates the same handful of objects for
// 100 rows as for 1 000 (the response, the payload copy, the result, one
// backing array for the cells and one slice of rows).
func TestResponseCodecAllocs(t *testing.T) {
	decodeAllocs := func(rows int) float64 {
		resp := wideResponse(rows, 16)
		buf, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { buf, _ = AppendResponse(buf[:0], resp) }); n != 0 {
			t.Errorf("encoding %d rows into a warm buffer: %v allocs, want 0", rows, n)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeResponse(buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := decodeAllocs(100), decodeAllocs(1000)
	if small != large || small > 8 {
		t.Errorf("decode allocs: %v at 100 rows, %v at 1000 rows; want equal and at most 8", small, large)
	}
}

var codecSink any

// BenchmarkResponseCodec measures the two halves of the codec on a point
// answer (one row, the serve_hot shape) and on the median serve_wide frame,
// with no database behind them. The json sub-benchmarks are the reference
// the hand-written halves replaced.
func BenchmarkResponseCodec(b *testing.B) {
	for _, shape := range []struct {
		name string
		resp *Response
	}{{"point", wideResponse(1, 16)}, {"wide", wideResponse(390, 16)}} {
		payload, err := AppendResponse(nil, shape.resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			buf := make([]byte, 0, len(payload))
			for i := 0; i < b.N; i++ {
				buf, _ = AppendResponse(buf[:0], shape.resp)
			}
			codecSink = buf
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				codecSink, _ = DecodeResponse(payload)
			}
		})
		b.Run("json-encode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				codecSink, _ = json.Marshal(shape.resp)
			}
		})
		b.Run("json-decode/"+shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				resp := new(Response)
				_ = json.Unmarshal(payload, resp)
				codecSink = resp
			}
		})
	}
}
