package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// outcome is what the client saw for one request.
type outcome struct {
	lat    time.Duration // send to last body byte read
	status int           // 0 on a transport error
	body   []byte        // response body, a slice of the run's arena
}

// newClient returns the closed-loop client: one keep-alive connection to
// the daemon, no proxy, no compression.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// noLimit lets drive send every op however long it takes.
const noLimit = time.Duration(math.MaxInt64)

// drive sends ops one at a time, each after the previous reply was read
// in full, until all are sent or limit has passed. It returns the
// outcomes of the requests it sent, in order, and the window's length.
// Response bodies land in one preallocated arena so the window does not
// allocate per byte read.
func drive(c *http.Client, baseURL string, ops []op, limit time.Duration) ([]outcome, time.Duration) {
	out := make([]outcome, len(ops))
	arena := make([]byte, 0, 512*len(ops))
	start := time.Now()
	for i := range ops {
		if time.Since(start) > limit {
			return out[:i], time.Since(start)
		}
		o := &ops[i]
		req, err := http.NewRequest(http.MethodPost, baseURL+o.kind.path(), bytes.NewReader(o.body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err := c.Do(req)
		if err != nil {
			out[i].lat = time.Since(t0)
			continue
		}
		from := len(arena)
		arena, err = readAll(arena, resp.Body)
		out[i].lat = time.Since(t0)
		resp.Body.Close()
		if err != nil {
			continue
		}
		out[i].status = resp.StatusCode
		out[i].body = arena[from:len(arena):len(arena)]
	}
	return out, time.Since(start)
}

// readAll appends r's bytes to buf until EOF.
func readAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// get fetches a control-plane endpoint and returns its body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading %s: %w", url, err)
	}
	return resp.StatusCode, b, nil
}
