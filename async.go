package clarens

import (
	"context"
	"sync"
	"time"
)

// AsyncResult summarizes one asynchronous measurement batch.
type AsyncResult struct {
	Calls    int
	Errors   int
	Elapsed  time.Duration
	FirstErr error
}

// Rate returns completed calls per second. A batch with no completed
// calls, or one whose timing was never measured (zero or negative
// Elapsed), rates 0 rather than dividing by zero.
func (r AsyncResult) Rate() float64 {
	if r.Elapsed <= 0 || r.Calls <= r.Errors {
		return 0
	}
	return float64(r.Calls-r.Errors) / r.Elapsed.Seconds()
}

// CallAsync reproduces the paper's Figure 4 client behavior: "a single
// process opening connections to the server and completing requests
// asynchronously" with a configurable number of concurrent logical
// clients. It issues totalCalls invocations of method with clients
// goroutines sharing the keep-alive pool and returns the batch timing.
func (c *Client) CallAsync(clients, totalCalls int, method string, params ...any) AsyncResult {
	return c.CallAsyncCtx(context.Background(), clients, totalCalls, method, params...)
}

// CallAsyncCtx is CallAsync bound to a context: cancelling ctx aborts the
// in-flight calls and stops issuing new ones; aborted calls count as
// errors with FirstErr reflecting the cancellation.
func (c *Client) CallAsyncCtx(ctx context.Context, clients, totalCalls int, method string, params ...any) AsyncResult {
	if clients < 1 {
		clients = 1
	}
	if totalCalls < 1 {
		return AsyncResult{}
	}
	// More clients than calls degenerates to one call per client for the
	// first totalCalls clients; size the pool to the real concurrency.
	if clients > totalCalls {
		clients = totalCalls
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errCount int
		firstErr error
	)
	perClient := totalCalls / clients
	extra := totalCalls % clients
	start := time.Now()
	for i := 0; i < clients; i++ {
		n := perClient
		if i < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				err := ctx.Err()
				if err == nil {
					_, err = c.CallCtx(ctx, method, params...)
				}
				if err != nil {
					errMu.Lock()
					errCount++
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}(n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		// Coarse clocks can report a zero-duration batch; clamp so a
		// measured batch always has a finite, nonzero rate.
		elapsed = time.Nanosecond
	}
	return AsyncResult{
		Calls:    totalCalls,
		Errors:   errCount,
		Elapsed:  elapsed,
		FirstErr: firstErr,
	}
}
