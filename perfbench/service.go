package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vinfra/internal/service"
)

// Headers linking a traced client span to the service span that handled it.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// server is an in-process service on a loopback listener.
type server struct {
	svc  *service.Service
	http *http.Server
	base string
	done chan struct{}
}

func startServer(svc *service.Service, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: tracedHandler{svc, tr}}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection, waits for the server to
// return, then stops every tenant loop.
func (s *server) stop() {
	s.http.Shutdown(context.Background())
	<-s.done
	s.svc.Close()
}

// tracedHandler records one span around each Service.ServeHTTP call,
// linked to the client span named in the request headers.
type tracedHandler struct {
	svc *service.Service
	tr  *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.Atoi(r.Header.Get(spanHeader))
	t0 := time.Now()
	h.svc.ServeHTTP(w, r)
	h.tr.add("service."+r.Header.Get(opHeader), int32(req), int32(req), t0, time.Now())
}

// client sends the probe's requests, one at a time over one connection,
// and counts every request and every failure.
type client struct {
	base             string
	hc               *http.Client
	tr               *tracer
	requests, failed atomic.Int64
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the response body and round-trip
// time. A transport error or a status other than want is a failed request.
func (c *client) call(op, method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	c.requests.Add(1)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.failed.Add(1)
		return nil, 0, err
	}
	t0 := time.Now()
	sp := c.tr.begin("client."+op, ownID, t0)
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
		req.Header.Set(opHeader, op)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed.Add(1)
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	c.tr.end(sp, t1)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err != nil {
		c.failed.Add(1)
		return nil, 0, err
	}
	return b, t1.Sub(t0), nil
}

// tally adds the client's request counts to the result.
func (c *client) tally(res *result) {
	res.Requests += int(c.requests.Load())
	res.RequestsFailed += int(c.failed.Load())
}

func (c *client) create(name string, doc []byte) error {
	body, err := json.Marshal(struct {
		Name string          `json:"name"`
		Spec json.RawMessage `json:"spec"`
	}{name, doc})
	if err != nil {
		return err
	}
	_, _, err = c.call("create", http.MethodPost, "/v1/sims", body, http.StatusCreated)
	return err
}

func (c *client) step(name string) (time.Duration, error) {
	_, d, err := c.call("step", http.MethodPost, "/v1/sims/"+name+"/step", []byte(`{"vrounds":1}`), http.StatusOK)
	return d, err
}

// serviceProbe serves one workload's world from an in-process service for
// the traced run's service-layer spans: three creates (the first two
// deleted), steps 1-vround step requests, and ten /metrics scrapes. It
// then checks the served world against an in-process one.
func serviceProbe(doc []byte, steps int, tr *tracer, res *result) error {
	svc, err := service.New(service.Options{})
	if err != nil {
		return err
	}
	srv, err := startServer(svc, tr)
	if err != nil {
		svc.Close()
		return err
	}
	defer srv.stop()
	cl := newClient(srv.base, tr)
	defer cl.close()
	defer cl.tally(res)
	var name string
	for i := 0; i < 3; i++ {
		if name != "" {
			if _, _, err := cl.call("delete", http.MethodDelete, "/v1/sims/"+name, nil, http.StatusOK); err != nil {
				return err
			}
		}
		name = fmt.Sprintf("probe-%d", i)
		if err := cl.create(name, doc); err != nil {
			return err
		}
	}
	for i := 0; i < steps; i++ {
		if _, err := cl.step(name); err != nil {
			return err
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, err := cl.call("metrics", http.MethodGet, "/metrics", nil, http.StatusOK); err != nil {
			return err
		}
	}
	return checkServed(cl, name, steps, res)
}

// checkServed checks that a tenant's GET checkpoint equals the checkpoint
// of an in-process world built from its GET spec and stepped as many
// vrounds.
func checkServed(cl *client, name string, vrounds int, res *result) error {
	got, _, err := cl.call("checkpoint", http.MethodGet, "/v1/sims/"+name+"/checkpoint", nil, http.StatusOK)
	if err != nil {
		return err
	}
	doc, _, err := cl.call("spec", http.MethodGet, "/v1/sims/"+name+"/spec", nil, http.StatusOK)
	if err != nil {
		return err
	}
	w, err := buildWorld(doc, nil)
	if err != nil {
		return err
	}
	defer w.Eng.Close()
	stepVRounds(w, vrounds)
	res.expect("service_equivalence", bytes.Equal(w.Checkpoint().Encode(), got),
		"%s: GET checkpoint after %d step requests differs from an in-process world of its GET spec", name, vrounds)
	return nil
}
