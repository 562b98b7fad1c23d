package obliviousmesh

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"obliviousmesh/internal/serial"
)

// ClientConfig tunes a Client. The zero value picks sane defaults.
type ClientConfig struct {
	// HTTPClient overrides the transport (default: a client with
	// keep-alives, so repeated calls reuse one TCP connection).
	HTTPClient *http.Client
	// MaxRetries is how many times a request is retried after a 429,
	// 5xx, or transport error (default 3; 0 keeps the default, use a
	// negative value to disable retries).
	MaxRetries int
	// BaseBackoff is the first retry delay; each subsequent retry
	// doubles it, jittered to ±50%, capped at MaxBackoff
	// (defaults 50ms and 2s). A Retry-After header on a 429/503
	// response overrides the computed backoff when it asks for longer.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RequestTimeout, when positive, bounds each client call (retries
	// and body consumption included) with its own deadline on top of
	// the caller's context — how a gateway keeps one slow backend from
	// holding a whole fan-out hostage.
	RequestTimeout time.Duration
	// Observe, when set, receives one sample per HTTP attempt: the
	// request path (with query), the attempt's wall time, and its
	// outcome (nil on a consumed 2xx). Latency-adaptive callers — a
	// hedging gateway sizing its straggler timer — feed quantile
	// estimators from here. Must be safe for concurrent use.
	Observe func(path string, elapsed time.Duration, err error)
}

// Client is a typed client for the meshrouted routing service. It is
// safe for concurrent use and reuses connections across calls.
//
// Requests that fail with 429 (shed), a 5xx, or a transport error are
// retried with jittered exponential backoff, honoring the context —
// the polite reaction to a load-shedding server. Requests that fail
// with a 4xx other than 429 are the caller's bug and fail immediately.
type Client struct {
	base string
	hc   *http.Client
	cfg  ClientConfig

	mu   sync.Mutex // guards mesh/info caching and the jitter rng
	rng  *rand.Rand
	info *ServerInfo
	mesh *Mesh
}

// ServerInfo describes the remote daemon, as reported by /v1/mesh.
type ServerInfo struct {
	Mesh     serial.MeshSpec `json:"mesh"`
	Seed     uint64          `json:"seed"`
	Variant  string          `json:"variant"`
	MaxBatch int             `json:"maxBatch"`
	// KSample is the daemon's semi-oblivious candidate count; 0 or 1
	// means pure oblivious selection.
	KSample int `json:"ksample"`
	// Formats lists the /v1/batch encodings the daemon speaks ("json",
	// "wire2"). Empty on daemons predating wire2.
	Formats []string `json:"formats"`
	// Features lists protocol capabilities beyond the encodings —
	// "batch-base" means /v1/batch honors the sharding stream offset.
	// Empty on older daemons.
	Features []string `json:"features"`
}

// HasFeature reports whether the daemon advertised a protocol feature
// on /v1/mesh (e.g. "batch-base").
func (info ServerInfo) HasFeature(feature string) bool {
	for _, f := range info.Features {
		if f == feature {
			return true
		}
	}
	return false
}

// HTTPError is any non-2xx response from the service, carrying the
// decoded error envelope.
type HTTPError struct {
	StatusCode int
	Message    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("meshrouted: %d %s: %s",
		e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// NewClient returns a Client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8732").
func NewClient(baseURL string, cfg ClientConfig) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   cfg.HTTPClient,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Route asks the service for one path. The returned stream id makes
// the path replayable: a local Router with the server's seed selects
// the identical path for (stream, s, t).
func (c *Client) Route(ctx context.Context, s, t NodeID) (Path, uint64, error) {
	blob, _ := json.Marshal(struct {
		S int `json:"s"`
		T int `json:"t"`
	}{int(s), int(t)})
	var resp struct {
		Stream uint64 `json:"stream"`
		Path   []int  `json:"path"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/route", blob, "", &resp); err != nil {
		return nil, 0, err
	}
	p := make(Path, len(resp.Path))
	for i, n := range resp.Path {
		p[i] = NodeID(n)
	}
	return p, resp.Stream, nil
}

// RouteBatch routes pairs in one request (JSON transport). Path i
// belongs to pairs[i] and is drawn with stream i, so the reply is a
// pure function of (server seed, pairs).
func (c *Client) RouteBatch(ctx context.Context, pairs []Pair) ([]Path, error) {
	blob, release := marshalPairs(pairs)
	defer release()
	var resp struct {
		Paths [][]int `json:"paths"`
	}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/batch", blob, "", &resp); err != nil {
		return nil, err
	}
	if len(resp.Paths) != len(pairs) {
		return nil, fmt.Errorf("meshrouted: got %d paths for %d pairs", len(resp.Paths), len(pairs))
	}
	paths := make([]Path, len(resp.Paths))
	for i, raw := range resp.Paths {
		p := make(Path, len(raw))
		for j, n := range raw {
			p[j] = NodeID(n)
		}
		paths[i] = p
	}
	return paths, nil
}

// RouteBatchWire is RouteBatch over the binary wire2 format: the
// batch travels as OMP2 segments — roughly an order of magnitude fewer
// bytes than JSON — and is expanded locally to the identical hop
// paths, decoded and validated against the server's topology (fetched
// once via /v1/mesh and cached). Like RouteBatchSeg, it fails on
// daemons that do not speak wire2.
func (c *Client) RouteBatchWire(ctx context.Context, pairs []Pair) ([]Path, error) {
	sps, err := c.RouteBatchSeg(ctx, pairs)
	if err != nil {
		return nil, err
	}
	m, err := c.Mesh(ctx)
	if err != nil {
		return nil, err
	}
	paths := make([]Path, len(sps))
	for i, sp := range sps {
		paths[i] = sp.Expand(m)
	}
	return paths, nil
}

// RouteBatchSeg routes pairs over the run-length wire format and
// returns the paths as segments, never expanding: the cheapest way to
// move a large batch when the caller can consume runs directly
// (LiveLoads.AddSegPath, metrics EvaluateSeg, SegPath.Expand on
// demand). The response is decoded incrementally — only the result
// slice itself grows with the batch, never a second whole-body buffer.
// Fails on daemons that do not advertise wire2.
func (c *Client) RouteBatchSeg(ctx context.Context, pairs []Pair) ([]SegPath, error) {
	sps := make([]SegPath, 0, len(pairs))
	if err := c.RouteBatchSegFunc(ctx, pairs, func(_ int, sp SegPath) error {
		sps = append(sps, sp.Clone()) // sp is lent
		return nil
	}); err != nil {
		return nil, err
	}
	return sps, nil
}

// RouteBatchSegFunc is the streaming form of RouteBatchSeg: fn
// receives path i for pairs[i] as soon as it is decoded and validated,
// so a consumer that processes paths on the fly (a tracker booking
// loads) holds O(1) paths of memory regardless of batch size. Body
// reads are capped by the largest stream the declared pair count
// permits, so a lying server cannot balloon client memory.
//
// The SegPath is lent: its runs live in the decoder's scratch and are
// valid only until fn returns. A consumer that keeps a path must copy
// it (SegPath.Clone); RouteBatchSeg does.
//
// Delivery is at-most-once per path: retries happen only before the
// server commits a success status, and any error after delivery starts
// — including fn's own, which is returned verbatim — aborts the call
// without re-invoking fn for already-delivered paths. The checksum
// trailer is only verified once every path has been delivered, so
// consumers needing end-to-end integrity before acting must buffer
// (RouteBatchSeg does exactly that).
func (c *Client) RouteBatchSegFunc(ctx context.Context, pairs []Pair, fn func(i int, sp SegPath) error) error {
	m, err := c.Mesh(ctx)
	if err != nil {
		return err
	}
	blob, release := marshalPairs(pairs)
	defer release()
	return c.do(ctx, http.MethodPost, "/v1/batch?format=wire2", blob, serial.WireSegContentType,
		func(body io.Reader) error {
			lr := io.LimitReader(body, serial.MaxWireSegBytes(m, len(pairs)))
			dec, err := serial.NewWireSegDecoder(lr, m, len(pairs))
			if err != nil {
				return fmt.Errorf("meshrouted: decode wire2 response: %w", err)
			}
			if dec.Count() != len(pairs) {
				return fmt.Errorf("meshrouted: got %d paths for %d pairs", dec.Count(), len(pairs))
			}
			for i := 0; i < len(pairs); i++ {
				sp, err := dec.NextLent()
				if err != nil {
					return fmt.Errorf("meshrouted: decode wire2 response: %w", err)
				}
				if err := fn(i, sp); err != nil {
					return err
				}
			}
			if err := dec.Close(); err != nil {
				return fmt.Errorf("meshrouted: decode wire2 response: %w", err)
			}
			return nil
		})
}

// RawBatch summarizes a raw wire2 fetch: how many paths the verified
// payload carries, its byte size, and the total hop count — the
// accounting a gateway needs without decoding a single SegPath.
type RawBatch struct {
	Paths int
	Bytes int64
	Edges int64
}

// RouteBatchWire2Raw is the zero-copy sibling of RouteBatchSegFunc: it
// routes pairs over wire2 and writes the response's verified *payload
// bytes* — the path records, stream header and checksum trailer
// stripped — to dst instead of decoding them into SegPaths. Every
// record's framing and geometry bounds are validated and the checksum
// trailer is verified against the scanned values, but no path is ever
// materialized, so the per-path cost is a varint scan rather than an
// allocation. A gateway splicing shard responses into one merged
// stream consumes exactly this form (serial.WireSegSplicer re-frames
// the fragments), because obliviousness makes each shard's records
// byte-identical to the single-daemon encoding at the same streams.
//
// base is a stream-id offset: the server draws path i with stream
// base+i instead of i. That is the sharding primitive — a gateway that
// fans pairs[lo:hi] out with base=lo gets back exactly the records one
// daemon would have produced for the whole batch at those indexes. A
// nonzero base requires the daemon to advertise the "batch-base"
// feature on /v1/mesh; older daemons would silently route with the
// wrong streams, so the call fails up front instead. Like
// RouteBatchSegFunc, body reads are capped by the largest stream the
// pair count permits, and delivery is at-most-once — bytes may reach
// dst before the trailer is verified, so a consumer that must not act
// on unverified data has to buffer until the call returns.
func (c *Client) RouteBatchWire2Raw(ctx context.Context, pairs []Pair, base uint64, dst io.Writer) (RawBatch, error) {
	if base > 0 {
		info, err := c.Info(ctx)
		if err != nil {
			return RawBatch{}, err
		}
		if !info.HasFeature("batch-base") {
			return RawBatch{}, fmt.Errorf("meshrouted: daemon does not advertise the batch-base feature (base=%d)", base)
		}
	}
	m, err := c.Mesh(ctx)
	if err != nil {
		return RawBatch{}, err
	}
	blob, release := marshalPairsBase(pairs, base)
	defer release()
	var rb RawBatch
	err = c.do(ctx, http.MethodPost, "/v1/batch?format=wire2", blob, serial.WireSegContentType,
		func(body io.Reader) error {
			lr := io.LimitReader(body, serial.MaxWireSegBytes(m, len(pairs)))
			n, edges, err := serial.CopyRawWireSeg(dst, lr, m, len(pairs))
			if err != nil {
				return fmt.Errorf("meshrouted: decode wire2 response: %w", err)
			}
			rb = RawBatch{Paths: len(pairs), Bytes: n, Edges: edges}
			return nil
		})
	if err != nil {
		return RawBatch{}, err
	}
	return rb, nil
}

// Info fetches /v1/mesh (cached after the first success).
func (c *Client) Info(ctx context.Context) (ServerInfo, error) {
	c.mu.Lock()
	if c.info != nil {
		info := *c.info
		c.mu.Unlock()
		return info, nil
	}
	c.mu.Unlock()
	var info ServerInfo
	if err := c.doJSON(ctx, http.MethodGet, "/v1/mesh", nil, "", &info); err != nil {
		return ServerInfo{}, err
	}
	m, err := info.Mesh.Build()
	if err != nil {
		return ServerInfo{}, fmt.Errorf("meshrouted: server topology: %w", err)
	}
	c.mu.Lock()
	c.info, c.mesh = &info, m
	c.mu.Unlock()
	return info, nil
}

// Mesh returns the server's topology (fetched once, then cached), for
// validating pairs locally or replaying server paths with a Router.
func (c *Client) Mesh(ctx context.Context) (*Mesh, error) {
	if _, err := c.Info(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mesh, nil
}

// Health probes /healthz: nil means the daemon is up and not
// draining; a draining or down daemon returns an error.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, "", func(io.Reader) error { return nil })
}

// Metrics scrapes the /metrics text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var text string
	err := c.do(ctx, http.MethodGet, "/metrics", nil, "", func(body io.Reader) error {
		b, err := io.ReadAll(body)
		text = string(b)
		return err
	})
	return text, err
}

// pairsBodyPool recycles batch request bodies: a steady stream of
// same-shaped batches stops allocating the ~12 B/pair JSON after the
// first few calls — the request side of the zero-copy story.
var pairsBodyPool = sync.Pool{New: func() any { return new([]byte) }}

func marshalPairs(pairs []Pair) ([]byte, func()) {
	return marshalPairsBase(pairs, 0)
}

// marshalPairsBase renders {"pairs":[[s,t],...]} (plus "base" when
// nonzero) into a pooled buffer. The caller must invoke release once
// the request — retries included — no longer needs the bytes; the
// slice is invalid afterwards.
func marshalPairsBase(pairs []Pair, base uint64) ([]byte, func()) {
	bp := pairsBodyPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"pairs":[`...)
	for i, pr := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(pr.S), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(pr.T), 10)
		b = append(b, ']')
	}
	b = append(b, ']')
	if base > 0 {
		b = append(b, `,"base":`...)
		b = strconv.AppendUint(b, base, 10)
	}
	b = append(b, '}')
	*bp = b
	return b, func() { pairsBodyPool.Put(bp) }
}

// doJSON runs do and decodes a JSON body into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, accept string, out any) error {
	return c.do(ctx, method, path, body, accept, func(r io.Reader) error {
		if err := json.NewDecoder(r).Decode(out); err != nil {
			return fmt.Errorf("meshrouted: decode response: %w", err)
		}
		return nil
	})
}

// do issues one request with the retry policy: 429/5xx/transport
// errors retry with jittered exponential backoff (bounded by ctx and
// MaxRetries, stretched to a server-sent Retry-After when longer);
// other non-2xx statuses fail immediately as *HTTPError. onBody
// consumes the 2xx response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte, accept string, onBody func(io.Reader) error) error {
	if c.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	var lastErr error
	var retryAfter time.Duration // the previous response's Retry-After hint
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt, retryAfter); err != nil {
				return err // context ended while backing off
			}
		}
		retryAfter = 0
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		t0 := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			c.observe(path, t0, err)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			err := onBody(resp.Body)
			io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			resp.Body.Close()
			c.observe(path, t0, err)
			return err
		}
		herr := &HTTPError{StatusCode: resp.StatusCode, Message: readErrBody(resp.Body)}
		retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		resp.Body.Close()
		c.observe(path, t0, herr)
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode < 500 {
			return herr // the request itself is wrong; retrying won't help
		}
		lastErr = herr
	}
	return fmt.Errorf("meshrouted: giving up after %d attempts: %w", c.cfg.MaxRetries+1, lastErr)
}

// observe feeds the per-attempt hook, when configured.
func (c *Client) observe(path string, t0 time.Time, err error) {
	if c.cfg.Observe != nil {
		c.cfg.Observe(path, time.Since(t0), err)
	}
}

// parseRetryAfter reads a Retry-After header: delay-seconds or an
// HTTP-date, anything else (or the past) is 0.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// sleep blocks for the attempt's jittered backoff — or for the
// server's Retry-After when it asked for longer — or until ctx ends.
// A shed server knows better than the client's exponential schedule
// when it expects to have capacity again; ignoring the larger figure
// would re-offer load it already said it cannot take.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.cfg.BaseBackoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	// Jitter to d/2 + rand(d/2): retries from many clients spread out
	// instead of stampeding the recovering server in lockstep.
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func readErrBody(r io.Reader) string {
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(r, 4096)).Decode(&eb); err == nil && eb.Error != "" {
		return eb.Error
	}
	return "(no error body)"
}
