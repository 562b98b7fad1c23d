package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	obliviousmesh "obliviousmesh"
	"obliviousmesh/internal/gateway"
	"obliviousmesh/internal/mesh"
	"obliviousmesh/internal/metrics"
	"obliviousmesh/internal/server"
)

// system is the program under test, served in-process on loopback
// listeners: one daemon, or meshgate over gatewayBackends daemons.
// Nothing runs in a child process.
type system struct {
	daemons []*server.Server
	gw      *gateway.Gateway
	https   []*http.Server
	serving sync.WaitGroup // one per Serve goroutine

	front    *obliviousmesh.Client   // the benchmark's client: the gateway, or the one daemon
	scrapes  []*obliviousmesh.Client // /metrics of every daemon, on a transport of their own
	gwScrape *obliviousmesh.Client   // /metrics of the gateway (nil without one)

	transports []*http.Transport // closed idle on shutdown
}

// clientTimeout bounds each benchmark request; a request that runs out
// counts as failed.
const clientTimeout = 10 * time.Second

// startSystem builds the system under test and returns once the
// benchmark client has fetched /v1/mesh through the front door. On
// error everything started so far is shut down.
func startSystem(ctx context.Context, w workload, m *mesh.Mesh, tr *tracer, onListen func(addr string)) (_ *system, err error) {
	s := &system{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	n := 1
	if w.gateway {
		n = gatewayBackends
	}
	var urls []string
	for i := 0; i < n; i++ {
		d, err := server.New(server.Config{Mesh: m, Seed: routeSeed, KSample: w.ksample})
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		url, err := s.serve(tr.handler(kindServer, d.Handler()), onListen)
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
		s.scrapes = append(s.scrapes, obliviousmesh.NewClient(url, obliviousmesh.ClientConfig{
			HTTPClient: &http.Client{Transport: s.transport(1)},
		}))
	}
	frontURL := urls[0]
	if w.gateway {
		// The gateway keeps its default transport settings; the
		// benchmark only wraps them to carry span ids.
		gwHC := &http.Client{Transport: &benchTransport{base: s.transport(0), t: tr, backendRT: true}}
		s.gw, err = gateway.New(ctx, gateway.Config{Backends: urls, HTTPClient: gwHC})
		if err != nil {
			return nil, err
		}
		if frontURL, err = s.serve(tr.handler(kindGateway, s.gw.Handler()), onListen); err != nil {
			return nil, err
		}
		s.gwScrape = obliviousmesh.NewClient(frontURL, obliviousmesh.ClientConfig{
			HTTPClient: &http.Client{Transport: s.transport(1)},
		})
	}
	conns := capClients(w.clients)
	s.front = obliviousmesh.NewClient(frontURL, obliviousmesh.ClientConfig{
		HTTPClient:     &http.Client{Transport: &benchTransport{base: s.transport(conns), t: tr}},
		MaxRetries:     -1, // every 429, 5xx or transport error is a failed request
		RequestTimeout: clientTimeout,
	})
	if _, err := s.front.Info(ctx); err != nil {
		return nil, fmt.Errorf("front door not ready: %w", err)
	}
	return s, nil
}

// transport returns a fresh http.DefaultTransport clone, capped at
// conns connections per host when conns > 0.
func (s *system) transport(conns int) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if conns > 0 {
		t.MaxConnsPerHost = conns
		t.MaxIdleConnsPerHost = conns
	}
	s.transports = append(s.transports, t)
	return t
}

func (s *system) serve(h http.Handler, onListen func(string)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if onListen != nil {
		onListen(addr)
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "meshbench: serve %s: %v\n", addr, err)
		}
	}()
	return "http://" + addr, nil
}

// close stops the gateway's probers, closes every listener and
// connection, waits for every Serve goroutine to return and drops the
// clients' idle connections.
func (s *system) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	for i := len(s.https) - 1; i >= 0; i-- { // gateway first, daemons after
		s.https[i].Close()
	}
	s.serving.Wait()
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

// stats sums the daemons' request counters.
func (s *system) stats() metrics.ServerStats {
	var sum metrics.ServerStats
	for _, d := range s.daemons {
		st := d.Stats()
		sum.Started += st.Started
		sum.Finished += st.Finished
		sum.OK += st.OK
		sum.Shed += st.Shed
		sum.Timeouts += st.Timeouts
		sum.Routes += st.Routes
		sum.Traversals += st.Traversals
	}
	return sum
}
