package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/server"
)

// errRefused marks backpressure answers (429/503). The benchmark never
// retries them: a refused request is a miss, counted in failed_share.
var errRefused = errors.New("refused")

// client speaks the session API over at most nproc connections; the
// benchmark never has more requests in flight than that.
type client struct {
	base string
	hc   *http.Client

	attempted atomic.Int64
	failed    atomic.Int64
	refused   atomic.Int64
}

func newClient(base string) *client {
	n := runtime.NumCPU()
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}}
}

// do issues one request and decodes a 2xx JSON answer into out.
func (c *client) do(method, path string, in, out any) error {
	c.attempted.Add(1)
	err := c.roundTrip(method, path, in, out)
	switch {
	case errors.Is(err, errRefused):
		c.refused.Add(1)
	case err != nil:
		c.failed.Add(1)
	}
	return err
}

func (c *client) roundTrip(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%s %s: %d %s: %w", method, path, resp.StatusCode, bytes.TrimSpace(b), errRefused)
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

func (c *client) create(spec server.SessionSpec) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions", spec, &info)
	return info, err
}

func (c *client) step(id string) (server.StepResponse, error) {
	var resp server.StepResponse
	err := c.do(http.MethodPost, "/v1/sessions/"+id+"/step", nil, &resp)
	return resp, err
}

func (c *client) result(id string) (server.ResultInfo, error) {
	var res server.ResultInfo
	err := c.do(http.MethodGet, "/v1/sessions/"+id+"/result", nil, &res)
	return res, err
}

func (c *client) remove(id string) error {
	return c.do(http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

func (c *client) appendRows(rows [][]float64) (server.AppendResponse, error) {
	var resp server.AppendResponse
	err := c.do(http.MethodPost, "/v1/append", server.AppendRequest{Rows: rows}, &resp)
	return resp, err
}
