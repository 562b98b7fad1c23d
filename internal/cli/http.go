package cli

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Listener limits of the daemons' HTTP servers (meshrouted, meshgate).
// They bound what one client can hold without sending a request: a
// slow-loris client that trickles its header is cut off after
// ReadHeaderTimeout, an idle keep-alive connection is closed after
// IdleTimeout, and a header larger than MaxHeaderBytes is refused.
// Request bodies and streamed responses are bounded by the handlers'
// own request timeouts, so no read or write timeout is set here: a
// large batch may legitimately stream for longer than any fixed
// connection deadline.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
	MaxHeaderBytes    = 64 << 10
)

// NewHTTPServer returns an http.Server serving h with the listener
// limits above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
}

// ServeAndDrain is the serve-and-drain sequence of meshrouted and
// meshgate (DESIGN.md §10). It serves h on ln with the listener limits
// above until ctx ends, then drains: drain runs first — it flips the
// front to draining, so /healthz turns 503 and load balancers stop
// sending, and new work is shed — then the listener shuts down, giving
// in-flight requests up to drainTimeout to complete. A listener
// failure before ctx ends is returned as is.
func ServeAndDrain(ctx context.Context, ln net.Listener, h http.Handler, drainTimeout time.Duration, drain func()) error {
	hs := NewHTTPServer(h)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}

	drain()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("drain timed out after %v with requests still in flight", drainTimeout)
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
