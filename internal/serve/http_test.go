package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clrdram/internal/sim"
	"clrdram/internal/workload"
)

func postJob(t *testing.T, ts *httptest.Server, spec sim.Spec, opts RunOptions) (SubmitResponse, int) {
	t.Helper()
	sb, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Spec: sb, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return sr, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServerReportMatchesDirectRun is the end-to-end determinism gate: the
// report document fetched over HTTP for a completed sweep job must be
// byte-identical to the canonical report of a direct sim.Run with the same
// spec and options. make serve-smoke re-checks the same property against a
// real daemon process.
func TestServerReportMatchesDirectRun(t *testing.T) {
	m := NewManager(Config{MaxConcurrent: 2})
	defer m.Drain(context.Background())
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	spec := sim.Fig12Spec(workload.All()[:2])
	opts := RunOptions{Seed: 7, TargetInstructions: 20_000}

	sr, status := postJob(t, ts, spec, opts)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}

	// Poll the status endpoint to completion.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.ID, &st); code != http.StatusOK {
			t.Fatalf("status fetch: %d", code)
		}
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("report fetch: %d, %v", resp.StatusCode, err)
	}

	// Direct reference run through the identical option mapping.
	simOpts := opts.SimOptions()
	out, err := sim.Run(context.Background(), spec, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ReportBytes(spec, out, simOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct) {
		t.Fatalf("served report diverges from direct run:\nserved %d bytes, direct %d bytes", len(served), len(direct))
	}
	if !json.Valid(served) {
		t.Fatal("served report is not valid JSON")
	}
}

func TestServerBackpressureAndErrors(t *testing.T) {
	release := make(chan struct{})
	m := stubManager(t, Config{MaxConcurrent: 1, MaxQueued: 1},
		func(ctx context.Context, j *Job) ([]byte, error) {
			select {
			case <-release:
				return []byte("{}\n"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	defer close(release)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// Fill: one running, one queued.
	spec0, opts0 := testSpec(t, 0)
	if _, code := postJob(t, ts, spec0, opts0); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	spec1, opts1 := testSpec(t, 1)
	if _, code := postJob(t, ts, spec1, opts1); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}

	// Saturated queue -> 429 with Retry-After and the typed error body.
	spec2, opts2 := testSpec(t, 2)
	sb, _ := json.Marshal(spec2)
	body, _ := json.Marshal(SubmitRequest{Spec: sb, Options: opts2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	if !strings.Contains(string(rb), "queue full") {
		t.Fatalf("429 body does not name the cause: %s", rb)
	}

	// Identical resubmission still dedups through saturation.
	if sr, code := postJob(t, ts, spec1, opts1); code != http.StatusAccepted || sr.Admission != "deduped" {
		t.Fatalf("dedup under saturation: %d %+v", code, sr)
	}

	// Unknown job -> 404; queued job's report -> 409.
	if code := getJSON(t, ts.URL+"/v1/jobs/jdeadbeef00000000", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	id1, err := JobID(spec1, opts1)
	if err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id1+"/report", nil); code != http.StatusConflict {
		t.Fatalf("early report: %d, want 409", code)
	}

	// Malformed spec -> 400.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"version":99,"kind":"fig12"}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", resp.StatusCode)
	}

	// /metrics is valid JSON and counts the rejection; /healthz reports the
	// queue.
	var snap map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	counters, _ := snap["counters"].(map[string]any)
	if counters["serve.rejected_queue_full"] != float64(1) {
		t.Fatalf("metrics missed the queue-full rejection: %v", counters)
	}
	var st Stats
	if code := getJSON(t, ts.URL+"/healthz", &st); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if st.Running != 1 || st.Queued != 1 {
		t.Fatalf("healthz stats: %+v", st)
	}
}

// TestServerRejectsUnknownOptions checks that a submission naming a field
// the server does not know (a retired option or body field, or a
// misspelling) or an unsupported fast-forward mode is refused with a 400
// that names it, instead of running a job other than the one the client
// asked for.
func TestServerRejectsUnknownOptions(t *testing.T) {
	m := stubManager(t, Config{MaxConcurrent: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte("{}\n"), nil
	})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	spec := `{"version":1,"kind":"single","profile":{"name":"random_00"}}`
	for _, tc := range []struct{ name, field, options, want string }{
		{"retired field", "", `{"disable_fast_forward":true}`, "disable_fast_forward"},
		{"misspelled field", "", `{"target_instruction":1000}`, "target_instruction"},
		{"adaptive mode", "", `{"fast_forward":"adaptive"}`, "adaptive"},
		{"retired body field", `"client":"alice",`, `{}`, "client"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{`+tc.field+`"spec":`+spec+`,"options":`+tc.options+`}`))
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, rb)
		} else if !strings.Contains(string(rb), tc.want) {
			t.Errorf("%s: 400 body does not name %q: %s", tc.name, tc.want, rb)
		}
	}
	if st := m.Stats(); st.Queued != 0 || st.Running != 0 {
		t.Fatalf("a rejected submission was admitted: %+v", st)
	}
}
