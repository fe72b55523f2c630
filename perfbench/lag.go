package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"avgloc/internal/load"
	"avgloc/internal/obs"
)

// recorder wraps the load generator's HTTP transport. It stamps every
// request send so the run's lag behind its schedule can be measured (the
// generator measures latency from the scheduled time but never records
// how late it fired), times each request from send to the end of its
// response, and in a traced run it emits one span per request and keeps
// the fleet's pending-chunk gauge from each /v1/metrics scrape. It also
// reads the batch and campaign streams for specs that failed inside a 200
// response, which the generator does not look for.
type recorder struct {
	next   http.RoundTripper
	tracer *obs.Tracer // nil: untraced

	mu      sync.Mutex
	sends   map[string][]time.Time // POST path -> send times, in send order
	service []served               // POST send to response end
	pending []float64              // fleet pending_chunks per scrape
	// streamErrs are the error lines of batch and campaign streams.
	streamErrs []string
}

// served is one POST's service time: send to the end of its response.
type served struct {
	sent time.Time
	ms   float64
}

// timedBody records a POST's service time, and ends its span, when the
// generator closes the response body after reading it to the end (batch
// and campaign responses stream one line per finished spec). For those
// streams it keeps a copy of what was read, to find their error lines.
type timedBody struct {
	io.ReadCloser
	rec    *recorder
	sent   time.Time
	span   *obs.Span
	status int
	stream *bytes.Buffer // nil unless a batch or campaign stream
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.stream != nil {
		b.stream.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() {
		b.span.End(obs.A("status", b.status))
		ms := float64(time.Since(b.sent).Microseconds()) / 1000
		errs := streamErrors(b.stream)
		b.rec.mu.Lock()
		b.rec.service = append(b.rec.service, served{b.sent, ms})
		b.rec.streamErrs = append(b.rec.streamErrs, errs...)
		b.rec.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// streamErrors returns the error lines of a batch or campaign stream: one
// line per spec, whose status is "error" when that spec failed.
func streamErrors(stream *bytes.Buffer) []string {
	if stream == nil {
		return nil
	}
	var out []string
	for _, line := range bytes.Split(stream.Bytes(), []byte("\n")) {
		var item struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if json.Unmarshal(line, &item) == nil && item.Status == "error" {
			out = append(out, item.Error)
		}
	}
	return out
}

func newRecorder(procs int, tracer *obs.Tracer) (*recorder, *http.Client) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = procs
	tr.MaxConnsPerHost = procs
	rec := &recorder{next: tr, tracer: tracer, sends: map[string][]time.Time{}}
	return rec, &http.Client{Timeout: 60 * time.Second, Transport: rec}
}

func (rec *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	now := time.Now()
	if req.Method == http.MethodPost {
		rec.mu.Lock()
		rec.sends[req.URL.Path] = append(rec.sends[req.URL.Path], now)
		rec.mu.Unlock()
	}
	sp := rec.tracer.Span(nil, "http.request", obs.A("method", req.Method), obs.A("path", req.URL.Path))
	resp, err := rec.next.RoundTrip(req)
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return nil, err
	}
	if req.Method == http.MethodPost {
		tb := &timedBody{ReadCloser: resp.Body, rec: rec, sent: now, span: sp, status: resp.StatusCode}
		if req.URL.Path != endpointPath[load.EndpointRun] {
			tb.stream = &bytes.Buffer{}
		}
		resp.Body = tb
	} else {
		sp.End(obs.A("status", resp.StatusCode))
	}
	if rec.tracer != nil && req.URL.Path == "/v1/metrics" && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		var m struct {
			Fleet *struct {
				Pending int `json:"pending_chunks"`
			} `json:"fleet"`
		}
		if json.Unmarshal(body, &m) == nil && m.Fleet != nil {
			rec.mu.Lock()
			rec.pending = append(rec.pending, float64(m.Fleet.Pending))
			rec.mu.Unlock()
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	return resp, nil
}

// endpointPath is the URL path load.Run posts each endpoint's requests to.
var endpointPath = map[string]string{
	load.EndpointRun:      "/v1/run",
	load.EndpointBatch:    "/v1/batch",
	load.EndpointCampaign: "/v1/campaigns",
}

// lags matches every recorded send against the plan's schedule and returns
// how late each request fired, in ms. The dispatcher fires in schedule
// order, so the k-th POST to an endpoint is that endpoint's k-th scheduled
// request; two goroutines that swap places were launched at nearly the
// same time, which bounds the error of the match. It also returns how many
// scheduled requests had no recorded send.
func (rec *recorder) lags(schedule []load.Request, start time.Time) (lags []float64, unmatched int) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	seen := map[string]int{}
	for i := range schedule {
		path := endpointPath[schedule[i].Endpoint]
		k := seen[path]
		seen[path]++
		sends := rec.sends[path]
		if k >= len(sends) {
			unmatched++
			continue
		}
		due := start.Add(time.Duration(schedule[i].AtUS) * time.Microsecond)
		lags = append(lags, float64(sends[k].Sub(due).Microseconds())/1000)
	}
	return lags, unmatched
}

// reset forgets recorded sends and scrapes (between warm-up and the
// measured run).
func (rec *recorder) reset() {
	rec.mu.Lock()
	rec.sends = map[string][]time.Time{}
	rec.service = nil
	rec.pending = nil
	rec.streamErrs = nil
	rec.mu.Unlock()
}
