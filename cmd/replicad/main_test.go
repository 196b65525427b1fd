package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/service"
)

// startDaemon runs the daemon on an ephemeral port and returns its
// base URL plus a shutdown function that asserts a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		errc <- err
	}()

	scanner := bufio.NewScanner(pr)
	if !scanner.Scan() {
		cancel()
		t.Fatalf("daemon produced no banner: %v", <-errc)
	}
	banner := scanner.Text()
	go io.Copy(io.Discard, pr) // keep the pipe drained for later prints
	const marker = "listening on "
	i := strings.Index(banner, marker)
	j := strings.Index(banner, " (")
	if i < 0 || j < i {
		cancel()
		t.Fatalf("unexpected banner %q", banner)
	}
	url := banner[i+len(marker) : j]
	return url, func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("daemon exited with error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down")
		}
	}
}

// TestDaemonServesGoldenInstance is the end-to-end acceptance path:
// replicad solves a checked-in golden instance over real HTTP and the
// returned solution verifies with core.Verify.
func TestDaemonServesGoldenInstance(t *testing.T) {
	url, shutdown := startDaemon(t)
	defer shutdown()

	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "binary_dist_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(service.SolveRequestV2{Solver: "multiple-best", Instance: &in})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr service.SolveResponseV2
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(&in, core.Multiple, sr.Solution); err != nil {
		t.Fatalf("served solution does not verify: %v", err)
	}
	if sr.Replicas < sr.LowerBound {
		t.Errorf("replicas %d below lower bound %d", sr.Replicas, sr.LowerBound)
	}

	// Health and a warm repeat over the same connection family.
	hresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}
	resp2, err := http.Post(url+"/v2/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var warm service.SolveResponseV2
	if err := json.NewDecoder(resp2.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second identical solve not served from cache")
	}
	if warm.Replicas != sr.Replicas {
		t.Errorf("cache changed the objective: %d vs %d", warm.Replicas, sr.Replicas)
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "not-an-address"}, io.Discard)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
	if err := run(context.Background(), []string{"-no-such-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestDaemonCacheDisabled(t *testing.T) {
	url, shutdown := startDaemon(t, "-cache", "0")
	defer shutdown()
	var metrics struct {
		Cache service.CacheStats `json:"cache"`
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Cache.Capacity != 0 {
		t.Errorf("cache capacity %d, want 0", metrics.Cache.Capacity)
	}
}
