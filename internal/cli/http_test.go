package cli

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serve runs srv on a loopback listener until the test ends and
// returns its address.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestNewHTTPServerLimits(t *testing.T) {
	srv := NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout || srv.MaxHeaderBytes != MaxHeaderBytes {
		t.Fatalf("limits = %v/%v/%d, want %v/%v/%d", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes,
			ReadHeaderTimeout, IdleTimeout, MaxHeaderBytes)
	}
	if ReadHeaderTimeout <= 0 || IdleTimeout <= 0 || MaxHeaderBytes <= 0 {
		t.Fatal("a listener limit is disabled")
	}
}

// TestSlowHeaderClientCutOff: a client that sends half a request
// header and then stalls is disconnected once the header timeout
// passes (shortened here so the test runs in well under a second),
// instead of pinning the connection forever.
func TestSlowHeaderClientCutOff(t *testing.T) {
	srv := NewHTTPServer(http.NotFoundHandler())
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	conn, err := net.Dial("tcp", serve(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("slow-header connection still open after %v", time.Since(start))
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("slow-header connection closed only after %v", el)
	}
}

// TestOversizedHeaderRefused: a header past MaxHeaderBytes gets 431.
func TestOversizedHeaderRefused(t *testing.T) {
	conn, err := net.Dial("tcp", serve(t, NewHTTPServer(http.NotFoundHandler())))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "GET / HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 2*MaxHeaderBytes) + "\r\n\r\n"
	go io.WriteString(conn, req)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("status %d, want 431", resp.StatusCode)
	}
}

// TestServeAndDrain: cancelling ctx runs drain first and returns nil
// once the listener is shut down; a request still in flight after the
// drain timeout turns into the "drain timed out" error.
func TestServeAndDrain(t *testing.T) {
	for _, stuck := range []bool{false, true} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		started, release := make(chan struct{}), make(chan struct{})
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(started)
			<-release
		})
		ctx, cancel := context.WithCancel(context.Background())
		drained := false
		errc := make(chan error, 1)
		go func() {
			errc <- ServeAndDrain(ctx, ln, h, 50*time.Millisecond, func() { drained = true })
		}()
		if stuck {
			go http.Get("http://" + ln.Addr().String() + "/")
			<-started
		}
		cancel()
		err = <-errc
		close(release)
		if !drained {
			t.Fatalf("stuck=%v: drain never ran", stuck)
		}
		if timedOut := err != nil && strings.Contains(err.Error(), "drain timed out"); timedOut != stuck {
			t.Fatalf("stuck=%v: err %v", stuck, err)
		}
	}
}
