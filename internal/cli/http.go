package cli

import (
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
