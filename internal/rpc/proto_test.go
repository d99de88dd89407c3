package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestFrameTooLargeOnWrite: MaxFrame is enforced on the WRITE side with the
// typed error — an oversized frame never reaches the wire, so the peer
// cannot be hung by it.
func TestFrameTooLargeOnWrite(t *testing.T) {
	cases := []struct {
		name    string
		payload int
		wantErr bool
	}{
		{"v2 under limit", MaxFrame - 1, false},
		{"v2 at limit", MaxFrame, false},
		{"v2 one over", MaxFrame + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := writeFrameV2(io.Discard, opPut, 0, 1, make([]byte, tc.payload))
			if tc.wantErr != (err != nil) {
				t.Fatalf("payload %d: err=%v, want err=%v", tc.payload, err, tc.wantErr)
			}
			if tc.wantErr && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("payload %d: %v is not ErrFrameTooLarge", tc.payload, err)
			}
		})
	}

}

// TestFrameTooLargeOnRead: a corrupt or hostile length field fails before
// allocation.
func TestFrameTooLargeOnRead(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, headerSize)
	putHeader(hdr, header{op: opGet, id: 1, n: MaxFrame + 1})
	buf.Write(hdr)
	if _, _, err := readFrameV2(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read: %v", err)
	}
}

// TestOversizedPutDoesNotPoisonConnection: the end-to-end form of the write
// bugfix — a too-large request fails typed and the SAME connection keeps
// working (nothing partial was written).
func TestOversizedPutDoesNotPoisonConnection(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, 1)
	err := c.Put(ctx, "huge", make([]byte, MaxFrame))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
	if err := c.Put(ctx, "normal", []byte("v")); err != nil {
		t.Fatalf("connection poisoned by oversized put: %v", err)
	}
	v, err := c.Get(ctx, "normal")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("read after oversized put: %q %v", v, err)
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("pending map leaked the rejected call: %d", n)
	}
}

// TestErrorTaxonomy: every non-OK code surfaces as a *WireError matching
// exactly its own sentinel via errors.Is.
func TestErrorTaxonomy(t *testing.T) {
	sentinels := map[Code]error{
		CodeNotFound:      ErrNotFound,
		CodeOutOfService:  ErrOutOfService,
		CodeBadRequest:    ErrBadRequest,
		CodeInternal:      ErrInternal,
		CodeFrameTooLarge: ErrFrameTooLarge,
		CodeShutdown:      ErrShutdown,
		CodeUnsupported:   ErrUnsupported,
	}
	for code, want := range sentinels {
		err := wireErr(code, "detail text")
		if !errors.Is(err, want) {
			t.Fatalf("%v does not match its sentinel", code)
		}
		for other, sentinel := range sentinels {
			if other != code && errors.Is(err, sentinel) {
				t.Fatalf("%v also matches %v's sentinel", code, other)
			}
		}
		var we *WireError
		if !errors.As(err, &we) || we.Code != code {
			t.Fatalf("%v: not a *WireError carrying its code", code)
		}
	}
	if wireErr(CodeOK, "") != nil {
		t.Fatal("CodeOK must map to a nil error")
	}
}

// TestUnknownOpcodeOnWire: a raw v2 frame with an unknown opcode gets a
// bad_request response echoing the request id — it must not kill the
// connection.
func TestUnknownOpcodeOnWire(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(preambleV2[:]); err != nil {
		t.Fatal(err)
	}
	const bogusID = 0xDEADBEEF
	if _, err := writeFrameV2(conn, Opcode(99), 0, bogusID, nil); err != nil {
		t.Fatal(err)
	}
	h, payload, err := readFrameV2(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h.id != bogusID {
		t.Fatalf("response id = %#x, want %#x", h.id, bogusID)
	}
	r := wireReader{b: payload}
	code, err := r.u16()
	if err != nil || Code(code) != CodeBadRequest {
		t.Fatalf("unknown opcode response code = %d (%v)", code, err)
	}
	// Connection is still alive: a well-formed request on the same socket.
	var w wireBuf
	w.str("probe")
	w.b = append(w.b, []byte("value")...)
	if _, err := writeFrameV2(conn, opPut, 0, 2, w.b); err != nil {
		t.Fatal(err)
	}
	h, payload, err = readFrameV2(conn)
	if err != nil || h.id != 2 {
		t.Fatalf("follow-up frame: id=%d err=%v", h.id, err)
	}
	r = wireReader{b: payload}
	if code, _ := r.u16(); Code(code) != CodeOK {
		t.Fatalf("follow-up put code = %d", code)
	}
}

// TestHostilePreambleClosed: a connection that does not open with the v2
// preamble is closed without a reply — an old length-prefixed JSON frame,
// four bytes of garbage, a short preamble followed by a close, and a
// connection closed at once. None of them disturbs a v2 client on the same
// listener, and Close leaves no server goroutine behind.
func TestHostilePreambleClosed(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := NewServer(newTestStores(t, 1))
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	jsonFrame := []byte(`{"op":"get","shard_id":"kk"}`)
	if len(jsonFrame) != 0x1c {
		t.Fatalf("JSON body is %d bytes, want 0x1c", len(jsonFrame))
	}
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"json-frame", append([]byte{0x00, 0x00, 0x00, 0x1c}, jsonFrame...)},
		{"garbage", []byte{0xde, 0xad, 0xbe, 0xef}},
		{"short-preamble", preambleV2[:2]},
		{"closed-at-once", nil},
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if tc.bytes == nil {
			_ = conn.Close()
			continue
		}
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		if len(tc.bytes) < len(preambleV2) {
			// Close our side: the server sees EOF mid-preamble.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
		}
		if got := readUntilClosed(t, conn); len(got) != 0 {
			t.Fatalf("%s: server replied %d bytes: %q", tc.name, len(got), got)
		}
		_ = conn.Close()
	}

	ctx := context.Background()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "after-hostile", []byte("v")); err != nil {
		t.Fatalf("v2 put after hostile connections: %v", err)
	}
	if v, err := c.Get(ctx, "after-hostile"); err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("v2 get after hostile connections: %q %v", v, err)
	}
	_ = c.Close()
	srv.Close()

	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 500 {
			t.Fatalf("goroutines after Close: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readUntilClosed returns what the server sent on conn before closing it,
// failing the test if the server keeps the connection open.
func readUntilClosed(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	done := make(chan []byte, 1)
	go func() {
		got, _ := io.ReadAll(conn) // EOF or a reset both mean closed
		done <- got
	}()
	select {
	case got := <-done:
		return got
	case <-time.After(10 * time.Second):
		_ = conn.Close()
		got := <-done
		t.Fatalf("server kept a connection without the preamble open after replying %d bytes", len(got))
		return nil
	}
}
