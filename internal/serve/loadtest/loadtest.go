// Package loadtest is the load-generator harness for the query server:
// it drives an already-running server with thousands of concurrent
// mixed hot/cold queries and reports throughput, latency percentiles
// and cache effectiveness. cmd/dsmload is the CLI wrapper.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

// ReportSchema identifies the load-test report format.
const ReportSchema = "repro-loadtest/v1"

// Options configures one load run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string

	// Queries is the pool the generator cycles through. Distinct
	// queries are cold on their first arrival and hot after; a pool
	// smaller than Requests therefore exercises the memoization and
	// coalescing layers, which is the point.
	Queries []harness.Query

	// Requests is the total number of queries to issue.
	Requests int

	// Concurrency is the number of in-flight requests to sustain.
	Concurrency int

	// Client overrides the HTTP client (nil builds one with a
	// connection pool sized to Concurrency).
	Client *http.Client
}

// Report is the run summary cmd/dsmload emits as JSON.
type Report struct {
	Schema      string `json:"schema"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	Pool        int    `json:"query_pool"`

	DurationSeconds float64 `json:"duration_seconds"`
	QPS             float64 `json:"qps"`

	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`

	// Per-source counts, straight from the X-Dsm-Cache response header.
	Hits      int `json:"hits"`
	DiskHits  int `json:"disk_hits"`
	Misses    int `json:"misses"`
	Coalesced int `json:"coalesced"`

	// Rejected counts 429 responses: correct backpressure behavior, so
	// tracked apart from Errors.
	Rejected int `json:"rejected"`

	// Errors counts transport failures and non-200/429 statuses.
	Errors int `json:"errors"`

	// HitRate is the fraction of successful responses served without a
	// fresh simulation (memory + disk + coalesced).
	HitRate float64 `json:"hit_rate"`
}

// outcome is one request's result; each slot of the results array is
// written by exactly one worker, so no locking is needed.
type outcome struct {
	ms     float64
	source serve.Source
	status int // 0 = transport error
	ok     bool
}

// Run drives the server and summarizes the outcomes. The context bounds
// the whole run; a cancelled context fails the remaining requests.
func Run(ctx context.Context, o Options) (Report, error) {
	if o.BaseURL == "" {
		return Report{}, fmt.Errorf("loadtest: BaseURL required")
	}
	if len(o.Queries) == 0 {
		return Report{}, fmt.Errorf("loadtest: at least one query required")
	}
	if o.Requests < 1 {
		return Report{}, fmt.Errorf("loadtest: Requests must be >= 1")
	}
	if o.Concurrency < 1 {
		return Report{}, fmt.Errorf("loadtest: Concurrency must be >= 1")
	}
	client := o.Client
	if client == nil {
		// The default transport caps idle conns per host at 2, which
		// would serialize a thousand-way load through fresh dials.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = o.Concurrency
		t.MaxIdleConnsPerHost = o.Concurrency
		client = &http.Client{Transport: t}
	}

	// Pre-encode the pool once; workers share the read-only slices.
	bodies := make([][]byte, len(o.Queries))
	for i, q := range o.Queries {
		buf, err := json.Marshal(q)
		if err != nil {
			return Report{}, fmt.Errorf("loadtest: encoding query %d: %w", i, err)
		}
		bodies[i] = buf
	}

	url := o.BaseURL + "/query"
	results := make([]outcome, o.Requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := o.Concurrency
	if workers > o.Requests {
		workers = o.Requests
	}
	start := time.Now()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.Requests) {
					return
				}
				results[i] = issue(ctx, client, url, bodies[i%int64(len(bodies))])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	return summarize(o, results, elapsed), nil
}

// issue sends one query and classifies the response.
func issue(ctx context.Context, client *http.Client, url string, body []byte) outcome {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{ms: ms(t0)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return outcome{ms: ms(t0)}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return outcome{
		ms:     ms(t0),
		source: serve.Source(resp.Header.Get("X-Dsm-Cache")),
		status: resp.StatusCode,
		ok:     resp.StatusCode == http.StatusOK,
	}
}

// ms returns the elapsed milliseconds since t0.
func ms(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// summarize folds the outcomes into a Report.
func summarize(o Options, results []outcome, elapsed time.Duration) Report {
	r := Report{
		Schema:          ReportSchema,
		Requests:        len(results),
		Concurrency:     o.Concurrency,
		Pool:            len(o.Queries),
		DurationSeconds: elapsed.Seconds(),
	}
	if elapsed > 0 {
		r.QPS = float64(len(results)) / elapsed.Seconds()
	}
	lat := make([]float64, 0, len(results))
	for _, out := range results {
		switch {
		case out.ok:
			lat = append(lat, out.ms)
			switch out.source {
			case serve.SourceHit:
				r.Hits++
			case serve.SourceDisk:
				r.DiskHits++
			case serve.SourceMiss:
				r.Misses++
			case serve.SourceCoalesced:
				r.Coalesced++
			}
		case out.status == http.StatusTooManyRequests:
			r.Rejected++
		default:
			r.Errors++
		}
	}
	sort.Float64s(lat)
	r.P50ms = percentile(lat, 50)
	r.P95ms = percentile(lat, 95)
	r.P99ms = percentile(lat, 99)
	if ok := len(lat); ok > 0 {
		r.HitRate = float64(r.Hits+r.DiskHits+r.Coalesced) / float64(ok)
	}
	return r
}

// percentile returns the p-th percentile of a sorted sample (nearest-
// rank method); 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
