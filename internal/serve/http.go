package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"clrdram/internal/sim"
)

// Server is the HTTP face of a Manager. Routes (see SERVING.md):
//
//	POST /v1/jobs            submit a spec; returns the job ID
//	GET  /v1/jobs            list all known jobs
//	GET  /v1/jobs/{id}       one job's status document
//	GET  /v1/jobs/{id}/report  the canonical report of a finished job
//	GET  /metrics            server metrics registry as deterministic JSON
//	GET  /healthz            liveness + queue stats
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wraps a manager in its HTTP handler.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SubmitRequest is the POST /v1/jobs body. Spec is the versioned sim.Spec
// JSON envelope.
type SubmitRequest struct {
	Spec    json.RawMessage `json:"spec"`
	Options RunOptions      `json:"options,omitempty"`
}

// SubmitResponse answers a submission: the job ID to poll, its current
// state, and how the request was admitted ("queued", "deduped" when it
// coalesced onto an identical in-flight job, "cached" when the identical
// job already completed).
type SubmitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Admission string   `json:"admission"`
}

// httpError is the JSON error envelope every non-2xx response carries.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

// writeError maps the package's typed errors onto HTTP statuses: 429 for
// backpressure (queue full, with Retry-After so clients back off), 503
// while draining, 404 for unknown jobs, 409 for a report fetched before the
// job finished, 400 otherwise.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotReady):
		status = http.StatusConflict
	}
	writeJSON(w, status, httpError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	// Unknown fields are errors, not silently dropped: a misspelled or
	// retired option would otherwise run a different job than the client
	// asked for.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, errors.New("serve: request has no spec"))
		return
	}
	var spec sim.Spec
	if err := json.Unmarshal(req.Spec, &spec); err != nil {
		writeError(w, fmt.Errorf("serve: bad spec: %w", err))
		return
	}
	res, err := s.m.Submit(spec, req.Options)
	if err != nil {
		writeError(w, err)
		return
	}
	admission := "queued"
	switch {
	case res.Cached:
		admission = "cached"
	case res.Deduped:
		admission = "deduped"
	}
	status := http.StatusAccepted
	if res.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{
		ID:        res.Job.ID(),
		State:     res.Job.State(),
		Admission: admission,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.m.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	report, err := j.Report()
	if err != nil {
		if errors.Is(err, ErrNotReady) {
			writeError(w, err)
			return
		}
		// Failed job: surface its run error as a 422 with the error body.
		writeJSON(w, http.StatusUnprocessableEntity, httpError{Error: err.Error()})
		return
	}
	// The canonical document is served byte-for-byte — no re-encoding —
	// so it diffs clean against a direct sim.Run report.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(report)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := s.m.MetricsSnapshot().MarshalJSONDeterministic()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(b, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.m.Stats()
	status := http.StatusOK
	if st.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
}
