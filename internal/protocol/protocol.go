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
// FuzzDecodeFrame corpus); server and client both read through FrameReader,
// which runs DecodeFrame over its buffer. Responses, which carry the rows,
// have their own encoder and decoder for that same JSON (codec.go:
// AppendResponse, DecodeResponse), held byte for byte to encoding/json by
// FuzzResponseCodec; requests go through encoding/json itself. ExecResult,
// TuneResult, StatRow and TuneParams are also the facade's autostats types.
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
	// errShortFrame reports a buffer that ends before the declared payload
	// (DecodeFrame only; FrameReader reports io.ErrUnexpectedEOF instead).
	errShortFrame = errors.New("protocol: short frame")
	// ErrMalformed reports a frame whose payload is not a valid message:
	// DecodeRequest and DecodeResponse wrap it around the decoder's error, so
	// a peer is classified by errors.Is, not by text.
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
	// ErrFailed is what every other error code maps onto (bad_request,
	// sql_error, tenant_limit, ...): the server answered with a code. With
	// the four sentinels above it tells a server's answer from a transport
	// failure by errors.Is.
	ErrFailed = errors.New("protocol: request failed")
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

// TuneParams configures statistics selection: the tune request's knobs and
// the facade's autostats.TuneOptions, one type. Zero values select the
// defaults.
type TuneParams struct {
	// ThresholdPct is the t of t-optimizer-cost equivalence, in percent
	// (default 20, the paper's conservative choice).
	ThresholdPct float64 `json:"threshold_pct,omitempty"`
	// Epsilon pins the extreme selectivities of MNSA (default 0.0005).
	Epsilon float64 `json:"epsilon,omitempty"`
	// SingleColumnOnly restricts candidates to single-column statistics.
	SingleColumnOnly bool `json:"single_column_only,omitempty"`
	// Drop enables MNSA/D: detect non-essential statistics during creation
	// and place them on the drop-list.
	Drop bool `json:"drop,omitempty"`
	// Shrink runs the Shrinking Set algorithm after MNSA, drop-listing
	// everything outside the resulting essential set (the offline policy of
	// §6).
	Shrink bool `json:"shrink,omitempty"`
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
	Version int    `json:"version"`
	Server  string `json:"server"`
	// MaxFrame caps every later frame of the connection, both directions.
	MaxFrame int `json:"max_frame"`
	// Tenant confirms the connection's default tenant ("" when none).
	Tenant string `json:"tenant,omitempty"`
}

// ExecResult is the outcome of executing one SQL statement: the exec
// answer and the facade's autostats.QueryResult, one type.
type ExecResult struct {
	// Columns names the output columns ("table.column"), in position order.
	Columns []string `json:"columns,omitempty"`
	// Rows holds the output values rendered as SQL literals. The cells of
	// one result share memory — substrings of one backing string, whether
	// the facade rendered them or DecodeResponse decoded them — and the rows
	// are capped windows of one []string: appending to a row copies it, and a
	// cell kept beyond the result should be strings.Clone'd, or it keeps the
	// whole result's text reachable.
	Rows [][]string `json:"rows,omitempty"`
	// ExecCost is the execution cost in deterministic work units.
	ExecCost float64 `json:"exec_cost"`
	// EstimatedCost is the optimizer's estimate (0 for DML).
	EstimatedCost float64 `json:"estimated_cost,omitempty"`
	// Plan is the executed plan, pretty-printed (empty for DML).
	Plan string `json:"plan,omitempty"`
	// Affected counts DML-affected rows.
	Affected int `json:"affected,omitempty"`
	// Degraded lists the degraded-mode reasons when the statement was
	// planned without statistics the analysis wanted (their builds failed);
	// empty for healthy plans. The results themselves are exact — only the
	// plan choice leaned on default magic numbers.
	Degraded []string `json:"degraded,omitempty"`
}

// TuneResult summarizes a tuning run: the tune answer and the facade's
// autostats.TuneReport, one type.
type TuneResult struct {
	// Created lists statistics built, in creation order.
	Created []string `json:"created,omitempty"`
	// DropListed lists statistics identified as non-essential.
	DropListed []string `json:"drop_listed,omitempty"`
	// Essential lists the essential set when Shrink ran (nil otherwise).
	Essential []string `json:"essential,omitempty"`
	// OptimizerCalls counts optimizations performed by the algorithms.
	OptimizerCalls int `json:"optimizer_calls"`
	// CreationCostUnits is the statistics build cost in work units.
	CreationCostUnits float64 `json:"creation_cost_units"`
	// Degraded reports whether the run completed in degraded mode: some
	// statistic builds failed and the affected queries were planned on
	// default magic-number selectivities instead.
	Degraded bool `json:"degraded,omitempty"`
	// BuildFailures lists the statistics whose build failed.
	BuildFailures []string `json:"build_failures,omitempty"`
}

// StatRow describes one existing statistic: a row of the stats answer and
// the facade's autostats.StatInfo, one type.
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

// DecodeFrame decodes the first frame in buf, returning its payload and the
// remaining bytes. A buffer shorter than the header or the declared payload
// returns errShortFrame (the caller needs more data); a declared length above
// maxFrame (0 means DefaultMaxFrame) returns ErrFrameTooLarge. The payload
// aliases buf; callers that keep it must copy.
func DecodeFrame(buf []byte, maxFrame int) (payload, rest []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(buf) < headerSize {
		return nil, buf, errShortFrame
	}
	n := binary.BigEndian.Uint32(buf)
	if n > uint32(maxFrame) {
		return nil, buf, fmt.Errorf("%w: %d bytes > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	if uint32(len(buf)-headerSize) < n {
		return nil, buf, errShortFrame
	}
	end := headerSize + int(n)
	return buf[headerSize:end], buf[end:], nil
}

// A FrameReader's buffer starts at readBuf bytes and doubles until the frame
// in hand fits; one grown past keepReadBuf is dropped once it is empty.
const (
	readBuf     = 16 << 10
	keepReadBuf = 256 << 10
)

// FrameReader reads frames from a stream into one buffer that it owns and
// reuses; the server reads requests and the client responses through it.
type FrameReader struct {
	r        io.Reader
	maxFrame int
	buf      []byte
	lo, hi   int // buf[lo:hi] is read and not yet consumed
}

// NewFrameReader returns a reader of the frames on r whose payloads may be at
// most maxFrame bytes (0 means DefaultMaxFrame).
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	return &FrameReader{r: r, maxFrame: maxFrame}
}

// Next returns the payload of the next frame, valid until the following
// call. DecodeFrame judges the length prefix: one above the cap fails with
// ErrFrameTooLarge as soon as the header is in, before the buffer grows or
// another byte is read. A clean EOF between frames is io.EOF; one inside a
// frame is io.ErrUnexpectedEOF; other read errors are returned as they are.
func (fr *FrameReader) Next() ([]byte, error) {
	for {
		payload, rest, err := DecodeFrame(fr.buf[fr.lo:fr.hi], fr.maxFrame)
		if err == nil {
			fr.lo = fr.hi - len(rest)
			return payload, nil
		}
		if !errors.Is(err, errShortFrame) {
			return nil, err
		}
		switch {
		case fr.lo == fr.hi && (fr.buf == nil || len(fr.buf) > keepReadBuf):
			fr.buf, fr.lo, fr.hi = make([]byte, readBuf), 0, 0
		case fr.lo > 0: // move the partial frame to the front
			fr.hi = copy(fr.buf, fr.buf[fr.lo:fr.hi])
			fr.lo = 0
		case fr.hi == len(fr.buf):
			fr.buf = append(fr.buf, make([]byte, len(fr.buf))...)
		}
		n, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += n
		if n == 0 && err != nil {
			if err == io.EOF && fr.hi > fr.lo {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// DecodeRequest unmarshals one request payload, the twin of DecodeResponse:
// a payload that is not a request is ErrMalformed wrapping the decoder's error.
func DecodeRequest(payload []byte) (*Request, error) {
	req := new(Request)
	if err := json.Unmarshal(payload, req); err != nil {
		return nil, fmt.Errorf("%w request: %w", ErrMalformed, err)
	}
	return req, nil
}

// ErrResponse builds an error response echoing the request ID.
func ErrResponse(id uint64, code, msg string) *Response {
	return &Response{ID: id, Code: code, Error: msg}
}

// Err converts a non-OK response into a Go error (nil for success). The
// backpressure, drain, quota and timeout codes map onto their own sentinel
// errors and every other code onto ErrFailed, so callers can errors.Is them.
func (r *Response) Err() error {
	switch r.Code {
	case "": // success
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
		return fmt.Errorf("%w: %s: %s", ErrFailed, r.Code, r.Error)
	}
}
