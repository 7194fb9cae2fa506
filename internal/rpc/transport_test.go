package rpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"unicache/internal/cache"
	"unicache/internal/tenant"
)

// frame encodes one fragment: header plus payload.
func frame(msgID uint32, last bool, payload []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(payload)))
	b = binary.BigEndian.AppendUint32(b, msgID)
	flags := byte(0)
	if last {
		flags = flagLast
	}
	return append(append(b, flags), payload...)
}

// TestServeConnRejectsInterleavedFragmentsBeforeAuth: on a multi-tenant
// server an unauthenticated peer opens two messages at once. Reassembly
// holds at most one partial message, so the second message id is a
// protocol error and the connection ends instead of buffering both.
func TestServeConnRejectsInterleavedFragmentsBeforeAuth(t *testing.T) {
	reg, err := tenant.NewRegistry(tenant.Spec{Name: "acme", Token: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{TimerPeriod: -1, PrintWriter: &strings.Builder{}, Tenants: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := NewServer(c)
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(sEnd)
		close(done)
	}()
	go func() {
		// Write errors are expected once the server hangs up.
		filler := make([]byte, FragSize)
		_, _ = cEnd.Write(frame(1, false, filler))
		_, _ = cEnd.Write(frame(2, false, filler))
		_, _ = cEnd.Write(frame(1, false, filler))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn still running after fragments of two messages interleaved")
	}
}

// TestReadMessageOverLimitErrors: a message that reassembles past
// maxMessageSize is refused.
func TestReadMessageOverLimitErrors(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	w, r := newTransport(a), newTransport(b)
	go func() { _ = w.writeMessage(1, make([]byte, maxMessageSize+1)) }()
	_, msg, err := r.readMessage()
	_ = r.close() // unblocks the writer
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("readMessage of %d bytes: len %d, err %v; want the size limit error", maxMessageSize+1, len(msg), err)
	}
}

// TestTransportDropsLargeBuffers: after a message larger than
// maxKeptBufSize, neither side keeps a buffer of that size.
func TestTransportDropsLargeBuffers(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w, r := newTransport(a), newTransport(b)
	big := bytes.Repeat([]byte{7}, 4*maxKeptBufSize)
	go func() {
		_ = w.writeMessage(1, big)
		_ = w.writeMessage(2, []byte{msgPing})
	}()
	for i, want := range [][]byte{big, {msgPing}} {
		id, msg, err := r.readMessage()
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i+1) || !bytes.Equal(msg, want) {
			t.Fatalf("message %d: id %d, %d bytes; want id %d, %d bytes", i, id, len(msg), i+1, len(want))
		}
	}
	w.writeMu.Lock()
	wcap := cap(w.wbuf)
	w.writeMu.Unlock()
	if wcap > maxKeptBufSize || cap(r.msg) > maxKeptBufSize {
		t.Errorf("kept buffers: write %d, read %d bytes; want <= %d", wcap, cap(r.msg), maxKeptBufSize)
	}
}

// FuzzReadMessage feeds arbitrary bytes to a transport: it must never
// panic, and never return a message over maxMessageSize.
func FuzzReadMessage(f *testing.F) {
	f.Add(frame(1, true, []byte{msgPing}))
	payload := bytes.Repeat([]byte("abcdefgh"), (2*FragSize+10)/8+1)[:2*FragSize+10]
	var three []byte
	for i := 0; i < 3; i++ {
		end := min((i+1)*FragSize, len(payload))
		three = append(three, frame(9, i == 2, payload[i*FragSize:end])...)
	}
	f.Add(three)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = a.Write(data)
			_ = a.Close()
		}()
		tr := newTransport(b)
		for {
			_, msg, err := tr.readMessage()
			if err != nil {
				break
			}
			if len(msg) > maxMessageSize {
				t.Fatalf("message of %d bytes, over the %d-byte limit", len(msg), maxMessageSize)
			}
		}
		_ = tr.close()
		wg.Wait()
	})
}
