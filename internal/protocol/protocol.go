// Package protocol defines the wire protocol of the stats-as-a-service
// daemon (cmd/autostatsd): length-prefixed JSON frames carrying
// request/response messages with request IDs, error codes and a protocol
// version.
//
// Framing is deliberately boring — a 4-byte big-endian payload length
// followed by that many bytes of JSON — so that a frame can be decoded from
// a byte stream with exactly one size check and one unmarshal, and a
// malformed, truncated or oversized frame can never make a connection
// goroutine panic or read unboundedly (see DecodeFrame and the
// FuzzDecodeFrame corpus). Responses, which carry the rows, have their own
// encoder and decoder for that same JSON (codec.go: AppendResponse,
// DecodeResponse), held byte for byte to encoding/json by FuzzResponseCodec;
// requests go through encoding/json itself.
//
// Request IDs are chosen by the client and echoed verbatim in the response,
// which is what makes pipelining work: a client may have any number of
// requests outstanding on one connection, and responses may arrive in any
// order (the server's worker pool completes them as it pleases).
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version spoken by this build. A client announces
// its version in Hello; the server rejects mismatches with CodeVersion so
// incompatible peers fail fast instead of mis-parsing each other.
const Version = 1

// DefaultMaxFrame caps the payload length of one frame (4 MiB). The length
// prefix is validated against the cap BEFORE any payload is read, so a
// hostile peer cannot make the server allocate or read gigabytes.
const DefaultMaxFrame = 4 << 20

// headerSize is the frame length prefix: uint32, big endian.
const headerSize = 4

// Operation names carried in Request.Op.
const (
	OpHello    = "hello"
	OpExec     = "exec"
	OpExplain  = "explain"
	OpTune     = "tune"
	OpStats    = "stats"
	OpMaintain = "maintain"
	OpMetrics  = "metrics"
)

// Error codes carried in Response.Code. An empty code means success.
const (
	CodeOK          = ""
	CodeOverloaded  = "overloaded"   // admission control fast-fail; retry later
	CodeDraining    = "draining"     // server is shutting down; reconnect elsewhere
	CodeBadRequest  = "bad_request"  // malformed or incomplete request
	CodeUnknownOp   = "unknown_op"   // Request.Op not recognized
	CodeVersion     = "version"      // protocol version mismatch in Hello
	CodeTenantLimit = "tenant_limit" // tenant table full; no new tenants admitted
	CodeRateLimited = "rate_limited" // per-tenant quota exceeded; retry after backoff
	CodeTimeout     = "timeout"      // server-side request deadline expired
	CodeSQL         = "sql_error"    // parse/plan/execution error for the statement
	CodeInternal    = "internal"     // unexpected server-side failure
)

// Frame-level errors.
var (
	// ErrFrameTooLarge reports a length prefix above the frame cap.
	ErrFrameTooLarge = errors.New("protocol: frame exceeds size limit")
	// ErrShortFrame reports a buffer that ends before the declared payload
	// (DecodeFrame only; a stream read reports io.ErrUnexpectedEOF instead).
	ErrShortFrame = errors.New("protocol: short frame")
	// ErrMalformed reports a frame whose payload is not a valid message:
	// ReadRequest, ReadResponse and DecodeResponse wrap it around the
	// decoder's error, so a peer is classified by errors.Is, not by text.
	ErrMalformed = errors.New("protocol: malformed")
	// ErrOverloaded is the admission-control backpressure signal: the
	// server's worker queue is full and the request was rejected without
	// queuing. Clients should back off and retry; the client package returns
	// this error (wrapped) for CodeOverloaded responses.
	ErrOverloaded = errors.New("protocol: server overloaded")
	// ErrDraining reports a request rejected because the server is shutting
	// down; in-flight requests still complete, new ones must go elsewhere.
	ErrDraining = errors.New("protocol: server draining")
	// ErrRateLimited reports a request rejected by the per-tenant quota
	// (token bucket). The request was never admitted; retry after backoff.
	ErrRateLimited = errors.New("protocol: tenant rate limited")
	// ErrTimeout reports a request whose server-side deadline expired while
	// it was executing. The operation was canceled through its context; side
	// effects of completed phases (e.g. statistics already built) remain.
	ErrTimeout = errors.New("protocol: request timed out on server")
)

// Request is one client→server message.
type Request struct {
	// ID is echoed in the matching Response; clients use it to pair
	// pipelined responses with their requests.
	ID uint64 `json:"id"`
	// Op selects the operation (Op* constants).
	Op string `json:"op"`
	// Tenant names the per-tenant database the request runs against. Ops
	// hello and metrics do not need one; a hello with a tenant sets the
	// connection's default tenant for subsequent requests.
	Tenant string `json:"tenant,omitempty"`
	// Version is the client's protocol version (hello only).
	Version int `json:"version,omitempty"`
	// SQL is the statement for exec/explain and the single-query tune.
	SQL string `json:"sql,omitempty"`
	// SQLs is the workload for tune; when set it takes precedence over SQL.
	SQLs []string `json:"sqls,omitempty"`
	// Tune carries optional tuning knobs for op tune.
	Tune *TuneParams `json:"tuneopts,omitempty"`
}

// TuneParams mirrors the facade's TuneOptions across the wire (zero values
// select the server defaults).
type TuneParams struct {
	ThresholdPct     float64 `json:"threshold_pct,omitempty"`
	Epsilon          float64 `json:"epsilon,omitempty"`
	SingleColumnOnly bool    `json:"single_column_only,omitempty"`
	Drop             bool    `json:"drop,omitempty"`
	Shrink           bool    `json:"shrink,omitempty"`
}

// Response is one server→client message. Exactly one of the payload fields
// is set on success, matching the request's op.
type Response struct {
	// ID echoes the request ID.
	ID uint64 `json:"id"`
	// Code is empty on success, else one of the Code* constants.
	Code string `json:"code,omitempty"`
	// Error is a human-readable message accompanying a non-empty Code.
	Error string `json:"error,omitempty"`

	Hello    *HelloResult `json:"hello,omitempty"`
	Exec     *ExecResult  `json:"exec,omitempty"`
	Plan     string       `json:"plan,omitempty"`
	Tune     *TuneResult  `json:"tune,omitempty"`
	Stats    []StatRow    `json:"stats,omitempty"`
	Maintain *MaintResult `json:"maintain,omitempty"`
	// Metrics is the server registry rendered as "name value" text lines
	// (op metrics).
	Metrics string `json:"metrics,omitempty"`
}

// HelloResult announces the server to a new connection.
type HelloResult struct {
	Version  int    `json:"version"`
	Server   string `json:"server"`
	MaxFrame int    `json:"max_frame"`
	// Tenant confirms the connection's default tenant ("" when none).
	Tenant string `json:"tenant,omitempty"`
}

// ExecResult mirrors autostats.QueryResult across the wire.
type ExecResult struct {
	Columns []string `json:"columns,omitempty"`
	// Rows as DecodeResponse returns them share memory: the cells are
	// substrings of one copy of the payload and the rows capped windows of
	// one []string. Appending to a row copies it; a cell kept beyond the
	// result should be strings.Clone'd, or it keeps the payload reachable.
	Rows          [][]string `json:"rows,omitempty"`
	ExecCost      float64    `json:"exec_cost"`
	EstimatedCost float64    `json:"estimated_cost,omitempty"`
	Plan          string     `json:"plan,omitempty"`
	Affected      int        `json:"affected,omitempty"`
	Degraded      []string   `json:"degraded,omitempty"`
}

// TuneResult mirrors autostats.TuneReport across the wire.
type TuneResult struct {
	Created           []string `json:"created,omitempty"`
	DropListed        []string `json:"drop_listed,omitempty"`
	Essential         []string `json:"essential,omitempty"`
	OptimizerCalls    int      `json:"optimizer_calls"`
	CreationCostUnits float64  `json:"creation_cost_units"`
	Degraded          bool     `json:"degraded,omitempty"`
	BuildFailures     []string `json:"build_failures,omitempty"`
}

// StatRow mirrors autostats.StatInfo across the wire.
type StatRow struct {
	ID         string   `json:"id"`
	Table      string   `json:"table"`
	Columns    []string `json:"columns"`
	Rows       int64    `json:"rows"`
	Distinct   int64    `json:"distinct"`
	Buckets    int      `json:"buckets"`
	InDropList bool     `json:"in_drop_list,omitempty"`
	Updates    int      `json:"updates,omitempty"`
}

// MaintResult reports one maintenance pass.
type MaintResult struct {
	TablesRefreshed int `json:"tables_refreshed"`
	StatsDropped    int `json:"stats_dropped"`
}

// AppendFrame appends payload to dst as one frame (length prefix + bytes).
func AppendFrame(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// EncodeFrame encodes v as JSON — a *Response through AppendResponse,
// anything else through json.Marshal — and returns it as one frame. It refuses
// to build a frame larger than maxFrame (0 means DefaultMaxFrame), so a server
// cannot emit what a symmetric peer would reject.
func EncodeFrame(v any, maxFrame int) ([]byte, error) {
	var frame []byte
	var err error
	// The payload goes in behind four bytes kept for its length.
	if resp, ok := v.(*Response); ok {
		frame, err = AppendResponse(make([]byte, headerSize, headerSize+sizeHint(resp)), resp)
	} else {
		var payload []byte
		payload, err = json.Marshal(v)
		frame = append(make([]byte, headerSize, headerSize+len(payload)), payload...)
	}
	if err != nil {
		return nil, fmt.Errorf("protocol: encode: %w", err)
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	n := len(frame) - headerSize
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return frame, nil
}

// WriteFrame marshals v and writes it as one frame.
func WriteFrame(w io.Writer, v any, maxFrame int) error {
	frame, err := EncodeFrame(v, maxFrame)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// DecodeFrame decodes the first frame in buf, returning its payload and the
// remaining bytes. A buffer shorter than the header or the declared payload
// returns ErrShortFrame (the caller needs more data); a declared length above
// maxFrame (0 means DefaultMaxFrame) returns ErrFrameTooLarge. The payload
// aliases buf; callers that keep it must copy.
func DecodeFrame(buf []byte, maxFrame int) (payload, rest []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(buf) < headerSize {
		return nil, buf, ErrShortFrame
	}
	n := binary.BigEndian.Uint32(buf)
	if n > uint32(maxFrame) {
		return nil, buf, fmt.Errorf("%w: %d bytes > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	if uint32(len(buf)-headerSize) < n {
		return nil, buf, ErrShortFrame
	}
	end := headerSize + int(n)
	return buf[headerSize:end], buf[end:], nil
}

// ReadFrame reads one frame's payload from r. The length prefix is validated
// against maxFrame (0 means DefaultMaxFrame) before any payload is read. A
// clean EOF before the first header byte returns io.EOF; a stream that ends
// mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// ReadRequest reads and unmarshals one Request frame.
func ReadRequest(r io.Reader, maxFrame int) (*Request, error) {
	payload, err := ReadFrame(r, maxFrame)
	if err != nil {
		return nil, err
	}
	req := new(Request)
	if err := json.Unmarshal(payload, req); err != nil {
		return nil, fmt.Errorf("%w request: %w", ErrMalformed, err)
	}
	return req, nil
}

// ReadResponse reads one frame and decodes it with DecodeResponse.
func ReadResponse(r io.Reader, maxFrame int) (*Response, error) {
	payload, err := ReadFrame(r, maxFrame)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

// ErrResponse builds an error response echoing the request ID.
func ErrResponse(id uint64, code, msg string) *Response {
	return &Response{ID: id, Code: code, Error: msg}
}

// Err converts a non-OK response into a Go error (nil for success). The
// backpressure and drain codes map onto their sentinel errors so callers can
// errors.Is them.
func (r *Response) Err() error {
	switch r.Code {
	case CodeOK:
		return nil
	case CodeOverloaded:
		return fmt.Errorf("%w (request %d)", ErrOverloaded, r.ID)
	case CodeDraining:
		return fmt.Errorf("%w (request %d)", ErrDraining, r.ID)
	case CodeRateLimited:
		return fmt.Errorf("%w (request %d)", ErrRateLimited, r.ID)
	case CodeTimeout:
		return fmt.Errorf("%w (request %d)", ErrTimeout, r.ID)
	default:
		return fmt.Errorf("protocol: %s: %s", r.Code, r.Error)
	}
}
