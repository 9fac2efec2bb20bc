package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestHardenedTimeouts pins the Slowloris hardening: the server a command
// binds MUST carry read-side timeouts (the bug was a bare
// &http.Server{Handler: mux} with none).
func TestHardenedTimeouts(t *testing.T) {
	srv := Hardened(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-header clients pin connections forever")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: slow-body clients pin connections forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset")
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unset")
	}
}

// TestObservabilitySurface pins the one observability surface adore-serve
// and adore-bench share: the service's handler answers /metrics, /status
// and /debug/pprof/ alongside its own routes.
func TestObservabilitySurface(t *testing.T) {
	h := New(Config{Parallelism: 1}).Handler()
	for _, path := range []string{"/metrics", "/status", "/debug/pprof/", "/healthz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestListenAndServeGraceful pins the shutdown contract: cancelling ctx
// lets an in-flight request finish (zero dropped requests) and returns
// nil for a clean drain.
func TestListenAndServeGraceful(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
		fmt.Fprint(w, "finished")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ListenAndServe(ctx, Hardened(mux), ln, 5*time.Second) }()

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-inHandler

	// Shutdown starts while the request is in flight...
	cancel()
	time.Sleep(20 * time.Millisecond)
	close(release)

	// ...and both the request and the server must finish cleanly.
	select {
	case body := <-got:
		if body != "finished" {
			t.Fatalf("in-flight request dropped during graceful shutdown: %q", body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("clean drain returned %v, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ListenAndServe did not return after shutdown")
	}
}

// TestListenAndServeGraceExpiry pins the bounded deadline: a request that
// outlives the grace cannot wedge shutdown; ListenAndServe force-closes
// and reports the shutdown error.
func TestListenAndServeGraceExpiry(t *testing.T) {
	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ListenAndServe(ctx, Hardened(mux), ln, 50*time.Millisecond) }()

	go http.Get("http://" + ln.Addr().String() + "/stuck")
	<-started
	cancel()

	select {
	case err := <-served:
		if err == nil {
			t.Fatal("grace expired with a stuck request but ListenAndServe reported a clean drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stuck request wedged shutdown past the grace deadline")
	}
}
