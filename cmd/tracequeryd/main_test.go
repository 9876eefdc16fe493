package main

import (
	"net/http"
	"testing"
	"time"

	"scaldift/internal/query"
)

// TestHTTPServerBounds pins the daemon's connection bounds: every
// read and idle phase is finite, and the write timeout covers a body
// read plus the longest query the -max-deadline clamp allows, so no
// legal query is cut off mid-answer.
func TestHTTPServerBounds(t *testing.T) {
	for _, maxDeadline := range []time.Duration{0, time.Second, query.DefaultMaxDeadline, 10 * time.Minute} {
		srv := newHTTPServer(":0", http.NotFoundHandler(), maxDeadline)
		if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout <= 0 {
			t.Fatalf("max-deadline %v: unbounded phase: header %v, read %v, idle %v, write %v", maxDeadline,
				srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
		}
		if srv.ReadHeaderTimeout > srv.ReadTimeout {
			t.Errorf("header timeout %v exceeds the whole-request timeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
		}
		clamp := maxDeadline
		if clamp <= 0 {
			clamp = query.DefaultMaxDeadline
		}
		if srv.WriteTimeout <= clamp+srv.ReadTimeout {
			t.Errorf("max-deadline %v: write timeout %v leaves no room past the body read and the query (%v)",
				maxDeadline, srv.WriteTimeout, clamp+srv.ReadTimeout)
		}
	}
}
