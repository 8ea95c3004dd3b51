package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"shmt"
	"shmt/internal/cluster"
	"shmt/internal/serve"
)

// backendPort is where cluster_mixed's backends listen (this port and the
// next). The router's consistent hash is keyed on backend addresses, so fixed
// ports are what makes the key → backend map, and with it the load balance,
// the same in every run. A run that cannot have them fails: on other ports it
// would measure another placement.
const backendPort = 47811

// listenFixed makes srv listen on addr, waiting a few seconds for a previous
// owner of the port to let go of it.
func listenFixed(srv *serve.Server, addr string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := srv.Listen(addr)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// deployment is one workload's system under test, alive for one set-up.
type deployment struct {
	def      *workloadDef
	traced   bool
	sessions []*shmt.Session
	servers  []*serve.Server
	router   *cluster.Router
	served   chan error // one send per Serve goroutine
	nServe   int
	front    string   // base URL requests are sent to ("" in process)
	backends []string // base URL of each serve.Server
}

// deploy constructs the workload's deployment with the program's defaults
// (zero-value shmt.Config and serve.Config) and waits until it answers.
// traced switches on what shmtserved ships with: session telemetry, request
// tracing and the span recorder.
func deploy(def *workloadDef, traced bool) (*deployment, error) {
	d := &deployment{def: def, traced: traced, served: make(chan error, 3)}
	nSess := 1
	if def.shape == shapeCluster {
		nSess = 2
	}
	for i := 0; i < nSess; i++ {
		var cfg shmt.Config
		cfg.Telemetry.Enabled = traced
		s, err := shmt.NewSession(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.sessions = append(d.sessions, s)
	}
	if def.shape == shapeLib {
		return d, nil
	}
	var seeds []string
	for i, s := range d.sessions {
		scfg := serve.Config{Tracing: traced, Spans: s.TelemetryRecorder()}
		if traced {
			// The traced repetition reads every request's stages back.
			scfg.FlightRecorderSize = 1 << 16
		}
		srv := serve.New(s, scfg)
		d.servers = append(d.servers, srv)
		var err error
		if def.shape == shapeCluster {
			err = listenFixed(srv, net.JoinHostPort("127.0.0.1", strconv.Itoa(backendPort+i)))
		} else {
			err = srv.Listen("127.0.0.1:0")
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		d.nServe++
		go func() { d.served <- srv.Serve() }()
		seeds = append(seeds, srv.Addr())
		d.backends = append(d.backends, "http://"+srv.Addr())
	}
	d.front = d.backends[0]
	if def.shape == shapeCluster {
		rt, err := cluster.NewRouter(cluster.RouterConfig{Seeds: seeds, ScatterThreshold: 1 << 16, MaxFanout: 2})
		if err != nil {
			d.close()
			return nil, err
		}
		d.router = rt
		if err := rt.Listen("127.0.0.1:0"); err != nil {
			d.close()
			return nil, err
		}
		d.nServe++
		go func() { d.served <- rt.Serve() }()
		d.front = "http://" + rt.Addr()
	}
	if err := d.waitReady(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz of every tier until each reports ok.
func (d *deployment) waitReady() error {
	urls := append([]string{d.front}, d.backends...)
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range urls {
		for {
			resp, err := http.Get(u + "/healthz")
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"status":"ok"`) {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready: %v", u, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	return nil
}

// close drains front to back and waits for every Serve goroutine to return.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	if d.router != nil {
		errs = append(errs, d.router.Shutdown(ctx))
	}
	for _, srv := range d.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for ; d.nServe > 0; d.nServe-- {
		errs = append(errs, <-d.served)
	}
	for _, s := range d.sessions {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

// client is one closed-loop caller: a library caller in process, or an RPC
// client with its own keep-alive connection and its own tenant.
type client struct {
	d      *deployment
	tenant string
	hc     *http.Client
	buf    bytes.Buffer // reply body, when kept
	fresh  []byte       // fresh-shape body under assembly

	harness time.Duration // time spent outside the system under test
}

func newClient(d *deployment, id int) *client {
	c := &client{d: d, tenant: fmt.Sprintf("tenant-%d", id)}
	if d.def.shape != shapeLib {
		c.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return c
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// reply is what a client keeps of one op.
type reply struct {
	latency   time.Duration // send → full reply
	status    int
	reqBytes  int
	respBytes int
	batchSize int
	backend   string // X-SHMT-Backend (cluster)
	scatter   int    // X-SHMT-Scatter partition count, 0 when proxied whole
	body      []byte // reply body, valid until the client's next call (keep only)
	batch     *shmt.BatchResult
}

// call runs one request in process.
func (c *client) call(r *request) (reply, error) {
	t0 := time.Now()
	res, err := c.d.sessions[0].ExecuteBatch(r.batch())
	return reply{latency: time.Since(t0), status: http.StatusOK, batch: res}, err
}

// post sends body to base+/v1/execute and reads the whole reply. Timed
// repetitions check the status and discard the body; keep retains it.
func (c *client) post(base string, body []byte, keep bool) (reply, error) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, c.tenant)
	t1 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	var n int64
	if keep {
		c.buf.Reset()
		n, err = c.buf.ReadFrom(resp.Body)
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	t2 := time.Now()
	if err != nil {
		return reply{}, err
	}
	rp := reply{
		latency:   t2.Sub(t0),
		status:    resp.StatusCode,
		reqBytes:  len(body),
		respBytes: int(n),
		backend:   resp.Header.Get(cluster.BackendHeader),
	}
	rp.batchSize, _ = strconv.Atoi(resp.Header.Get("X-SHMT-Batch-Size"))
	rp.scatter, _ = strconv.Atoi(resp.Header.Get(cluster.ScatterHeader))
	if keep {
		rp.body = c.buf.Bytes()
	}
	c.harness += t1.Sub(t0) + time.Since(t2)
	return rp, nil
}

// do runs request r through the deployment's front door.
func (c *client) do(r *request, keep bool) (reply, error) {
	if c.hc == nil {
		return c.call(r)
	}
	return c.post(c.d.front, r.body, keep)
}

// doFresh sends a request whose shape the deployment has not seen.
func (c *client) doFresh(p *freshPool) (reply, error) {
	t0 := time.Now()
	s, err := p.take()
	if err != nil {
		return reply{}, err
	}
	c.fresh = p.appendBody(c.fresh[:0], s)
	c.harness += time.Since(t0)
	return c.post(c.d.front, c.fresh, false)
}
