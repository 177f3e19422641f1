package server

import (
	"errors"
	"math"
	"net"
	"strings"
	"testing"

	"autostats"
	"autostats/internal/protocol"
)

// TestWriterAnswersUnencodableResponse: a response the writer cannot encode —
// an infinite cost, which JSON has no spelling for, or a payload over the
// frame cap — fails its own request with CodeInternal. The responses queued
// around it are delivered and the connection stays up: an encode error is
// not a dead socket, and must not cost the other pipelined requests theirs.
func TestWriterAnswersUnencodableResponse(t *testing.T) {
	s, err := New(Config{MaxFrame: 1 << 10, NewTenant: func(string) (*autostats.System, error) {
		return nil, errors.New("no tenant needed")
	}})
	if err != nil {
		t.Fatal(err)
	}
	peer, nc := net.Pipe()
	defer peer.Close()
	cn := newConn(s, nc)
	s.connWG.Add(1)
	go cn.writeLoop()

	cn.send(&protocol.Response{ID: 1, Plan: "before"})
	cn.send(&protocol.Response{ID: 2, Exec: &protocol.ExecResult{ExecCost: math.Inf(1)}})
	cn.send(&protocol.Response{ID: 3, Exec: &protocol.ExecResult{ExecCost: 1, EstimatedCost: math.NaN()}})
	cn.send(&protocol.Response{ID: 4, Metrics: strings.Repeat("m", 2<<10)})
	cn.send(&protocol.Response{ID: 5, Plan: "after"})

	fr := protocol.NewFrameReader(peer, 0)
	wantErr := []string{"", "response not encodable", "response not encodable", "response exceeds frame limit", ""}
	for i, want := range wantErr {
		payload, err := fr.Next()
		var resp *protocol.Response
		if err == nil {
			resp, err = protocol.DecodeResponse(payload)
		}
		if err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if resp.ID != uint64(i+1) || resp.Error != want || (want != "") != (resp.Code == protocol.CodeInternal) {
			t.Fatalf("response %d: %+v, want error %q", i+1, resp, want)
		}
	}
	select {
	case <-cn.dead:
		t.Fatal("the connection was killed over an encode error")
	default:
	}
	close(cn.out)
	s.connWG.Wait()
}
