package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"xqsim/internal/sweep"
)

// Server is the xqd daemon's HTTP+JSON face over a Scheduler.
//
//	POST /jobs            submit a JobSpec; 202 accepted, 200 cached,
//	                      429 + Retry-After when shedding load,
//	                      503 while draining
//	GET  /jobs            list known jobs
//	GET  /jobs/{id}       one job's status (progress for sweeps)
//	GET  /jobs/{id}/result the finished job's payload, byte-stable
//	GET  /healthz         liveness
//	GET  /stats           scheduler counters
//
// Work-stealing grid sweeps (see GridCoordinator):
//
//	POST /grids                        register a GridSpec; returns its id
//	GET  /grids                        list known grids with progress
//	GET  /grids/{id}                   one grid's status
//	POST /grids/{id}/lease             lease up to n incomplete cells
//	POST /grids/{id}/cells/{index}     complete a cell (idempotent; 409
//	                                   on conflicting bytes)
//	POST /grids/{id}/cells/{index}/renew extend a held lease
//	GET  /grids/{id}/result            merged JSONL, byte-identical to a
//	                                   single-process run; 409 while
//	                                   incomplete
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// RetryAfterSeconds is the hint returned with 429 responses.
const RetryAfterSeconds = 2

// NewServer wires the HTTP routes over a running scheduler.
func NewServer(sched *Scheduler) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /grids", s.handleGridCreate)
	s.mux.HandleFunc("GET /grids", s.handleGridList)
	s.mux.HandleFunc("GET /grids/{id}", s.handleGridStatus)
	s.mux.HandleFunc("POST /grids/{id}/lease", s.handleGridLease)
	s.mux.HandleFunc("POST /grids/{id}/cells/{index}", s.handleGridComplete)
	s.mux.HandleFunc("POST /grids/{id}/cells/{index}/renew", s.handleGridRenew)
	s.mux.HandleFunc("GET /grids/{id}/result", s.handleGridResult)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain delegates to the scheduler (see Scheduler.Drain).
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// submitResponse is the POST /jobs reply body.
type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // accepted | duplicate | cached
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeOne(r.Body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	hash, st, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	switch st {
	case SubmitCached:
		writeJSON(w, http.StatusOK, submitResponse{ID: hash, Status: "cached"})
	case SubmitDuplicate:
		writeJSON(w, http.StatusAccepted, submitResponse{ID: hash, Status: "duplicate"})
	default:
		writeJSON(w, http.StatusAccepted, submitResponse{ID: hash, Status: "accepted"})
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	out, ok := s.sched.Result(id)
	if !ok {
		if _, known := s.sched.Job(id); known {
			httpError(w, http.StatusConflict, "job not finished")
			return
		}
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if !out.OK {
		httpError(w, http.StatusUnprocessableEntity, out.Error)
		return
	}
	// The payload is served verbatim from the durable store — the
	// bit-for-bit reproducibility contract.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.Result)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.sched.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}

// The grid-lease wire types below are the protocol's one definition:
// the handlers decode and encode them, and xqsweep -worker, -submit and
// -fetch import them.

// GridCreateResponse is the POST /grids reply body.
type GridCreateResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // created | exists
	Cells  int    `json:"cells"`
}

// LeaseRequest is the POST /grids/{id}/lease body.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// LeaseResponse carries the leased cells plus a progress snapshot so a
// worker that got nothing knows whether to poll again or exit.
type LeaseResponse struct {
	Cells  []LeasedCell `json:"cells"`
	Status GridStatus   `json:"status"`
}

// RenewRequest is the POST /grids/{id}/cells/{index}/renew body.
type RenewRequest struct {
	Worker string `json:"worker"`
}

func (s *Server) handleGridCreate(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	var spec sweep.GridSpec
	if err := decodeOne(r.Body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad grid spec: %v", err))
		return
	}
	id, created, err := s.sched.Grids().Create(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, err := s.sched.Grids().Spec(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := GridCreateResponse{ID: id, Status: "exists", Cells: g.NumCells()}
	code := http.StatusOK
	if created {
		resp.Status = "created"
		code = http.StatusCreated
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleGridList(w http.ResponseWriter, _ *http.Request) {
	grids, err := s.sched.Grids().Grids()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if grids == nil {
		grids = []GridStatus{}
	}
	writeJSON(w, http.StatusOK, grids)
}

func (s *Server) handleGridStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Grids().Status(r.PathValue("id"))
	if err != nil {
		gridError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleGridLease(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		httpError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	var req LeaseRequest
	if err := decodeOne(r.Body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad lease request: %v", err))
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease request needs a worker name")
		return
	}
	cells, st, err := s.sched.Grids().Lease(r.PathValue("id"), req.Worker, req.Max)
	if err != nil {
		gridError(w, err)
		return
	}
	if cells == nil {
		cells = []LeasedCell{}
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Cells: cells, Status: st})
}

func (s *Server) handleGridComplete(w http.ResponseWriter, r *http.Request) {
	index, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad cell index")
		return
	}
	payload, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("read cell payload: %v", err))
		return
	}
	st, err := s.sched.Grids().Complete(r.PathValue("id"), index, payload)
	if err != nil {
		gridError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleGridRenew(w http.ResponseWriter, r *http.Request) {
	index, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad cell index")
		return
	}
	var req RenewRequest
	if err := decodeOne(r.Body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad renew request: %v", err))
		return
	}
	if err := s.sched.Grids().Renew(r.PathValue("id"), req.Worker, index); err != nil {
		gridError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
}

func (s *Server) handleGridResult(w http.ResponseWriter, r *http.Request) {
	out, err := s.sched.Grids().Result(r.PathValue("id"))
	if err != nil {
		gridError(w, err)
		return
	}
	// Served verbatim: these are the same bytes a single-process
	// `xqsweep -grid … -jsonl` run writes.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// decodeOne decodes a request body that holds exactly one JSON value
// with no field v lacks: every request body is read this way, so a
// misspelled field is an error, not a default. Only whitespace, such as
// a client's closing newline, may follow the value: a body carrying a
// second value or stray bytes is an error, not a request for its first
// value.
func decodeOne(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// gridError maps coordinator errors onto HTTP statuses.
func gridError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownGrid):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrCellConflict), errors.Is(err, ErrGridIncomplete), errors.Is(err, ErrLeaseHeld):
		httpError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrNoLease):
		httpError(w, http.StatusGone, err.Error())
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// Encoding a value we just built cannot fail in a recoverable way;
	// a broken client connection has no handler either.
	_ = enc.Encode(v)
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}
