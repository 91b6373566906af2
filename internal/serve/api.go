package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/profile"
)

// OptionsJSON is the wire form of a compilation configuration: the
// tunable subset of driver.Options and core.Options, flattened into one
// object. Pointer fields distinguish "absent" from "false"/"zero" so an
// omitted field means the paper's default (core.DefaultOptions), not
// the Go zero value — a client that sends {} compiles exactly like
// `hlocc` with no flags. A field it does not define is a 400
// (decodeRequest), never silently ignored.
type OptionsJSON struct {
	CrossModule      bool      `json:"cross_module,omitempty"`
	Profile          bool      `json:"profile,omitempty"`
	TrainInputs      []int64   `json:"train_inputs,omitempty"`
	ExtraTrainInputs [][]int64 `json:"extra_train_inputs,omitempty"`
	// ProfileText is a stored profile database in the profile.Write text
	// format, attached instead of running a training build (the wire
	// twin of `hlocc -use-profile`).
	ProfileText    string `json:"profile_text,omitempty"`
	AffinityLayout bool   `json:"affinity_layout,omitempty"`

	Budget         *int  `json:"budget,omitempty"`
	Passes         *int  `json:"passes,omitempty"`
	Inline         *bool `json:"inline,omitempty"`
	Clone          *bool `json:"clone,omitempty"`
	Outline        bool  `json:"outline,omitempty"`
	OutlineMinSize int   `json:"outline_min_size,omitempty"`
	ColdPenalty    *bool `json:"cold_penalty,omitempty"`
	LinearCost     bool  `json:"linear_cost,omitempty"`
	DeadCallElim   *bool `json:"dead_call_elim,omitempty"`
}

// driverOptions translates the wire options into a driver configuration
// (observability and cache are attached by the caller).
func (o *OptionsJSON) driverOptions() (driver.Options, error) {
	hlo := core.DefaultOptions()
	if o.Budget != nil {
		if *o.Budget < 0 || *o.Budget > 100_000 {
			return driver.Options{}, fmt.Errorf("budget %d out of range [0, 100000]", *o.Budget)
		}
		hlo.Budget = *o.Budget
	}
	if o.Passes != nil {
		if *o.Passes < 1 || *o.Passes > 64 {
			return driver.Options{}, fmt.Errorf("passes %d out of range [1, 64]", *o.Passes)
		}
		hlo.Passes = *o.Passes
	}
	if o.Inline != nil {
		hlo.Inline = *o.Inline
	}
	if o.Clone != nil {
		hlo.Clone = *o.Clone
	}
	if o.ColdPenalty != nil {
		hlo.ColdPenalty = *o.ColdPenalty
	}
	if o.DeadCallElim != nil {
		hlo.DeadCallElim = *o.DeadCallElim
	}
	hlo.Outline = o.Outline
	hlo.OutlineMinSize = o.OutlineMinSize
	hlo.LinearCost = o.LinearCost

	opts := driver.Options{
		CrossModule:      o.CrossModule,
		Profile:          o.Profile,
		TrainInputs:      o.TrainInputs,
		ExtraTrainInputs: o.ExtraTrainInputs,
		HLO:              hlo,
	}
	if o.AffinityLayout {
		opts.Layout = backend.LayoutCallAffinity
	}
	if o.ProfileText != "" {
		db, err := profile.Read(strings.NewReader(o.ProfileText))
		if err != nil {
			return driver.Options{}, fmt.Errorf("profile_text: %v", err)
		}
		opts.ProfileData = db
	}
	return opts, nil
}

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	Sources []string    `json:"sources"`
	Options OptionsJSON `json:"options"`
	// Remarks asks for the optimization-remark stream in the response.
	Remarks bool `json:"remarks,omitempty"`
	// Spans asks for the aggregated per-phase attribution of this
	// request (wall/self/CPU/alloc per pipeline phase) in the response.
	Spans bool `json:"spans,omitempty"`
	// Tag is a client-chosen workload label (benchmark name, experiment
	// cell). It becomes a runtime/pprof label on the executing
	// goroutines, so daemon CPU profiles can be sliced per workload.
	Tag string `json:"tag,omitempty"`
	// TimeoutMS caps this request's deadline; the server clamps it to
	// its own per-request limit. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r *CompileRequest) validate() error {
	if len(r.Sources) == 0 {
		return fmt.Errorf("sources: at least one module required")
	}
	if len(r.Sources) > 256 {
		return fmt.Errorf("sources: %d modules exceed the limit of 256", len(r.Sources))
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative")
	}
	return nil
}

// CompileResponse is the body of a successful POST /compile.
type CompileResponse struct {
	Stats       core.Stats   `json:"stats"`
	CompileCost int64        `json:"compile_cost"`
	CodeSize    int          `json:"code_size"`
	Remarks     []obs.Remark `json:"remarks,omitempty"`
	// Phases is the aggregated flight-record attribution of this request
	// (present when the request set "spans": true). Wall-clock fields are
	// this execution's; a single-flight follower sees the leader's.
	Phases []obs.PhaseStat `json:"phases,omitempty"`
}

// RunRequest is the body of POST /run: a compile plus a simulation of
// the result on the PA8000 model.
type RunRequest struct {
	CompileRequest
	Inputs []int64 `json:"inputs,omitempty"`
}

// RunResponse is the body of a successful POST /run.
type RunResponse struct {
	CompileResponse
	Sim *pa8000.Stats `json:"sim"`
	CPI float64       `json:"cpi"`
}

// TrainRequest is the body of POST /train: an instrumented training
// run. The response is the profile database in the profile.Write text
// format (Content-Type: text/plain), ready for OptionsJSON.ProfileText
// or `hlocc -use-profile`.
type TrainRequest struct {
	Sources          []string  `json:"sources"`
	TrainInputs      []int64   `json:"train_inputs,omitempty"`
	ExtraTrainInputs [][]int64 `json:"extra_train_inputs,omitempty"`
	Tag              string    `json:"tag,omitempty"`
	TimeoutMS        int64     `json:"timeout_ms,omitempty"`
}

func (r *TrainRequest) validate() error {
	if len(r.Sources) == 0 {
		return fmt.Errorf("sources: at least one module required")
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be non-negative")
	}
	return nil
}

// buildCompileResponse assembles the response for one completed
// compilation. It is a pure function of the compilation and the
// request's recorder, so a response served over HTTP is byte-identical
// to one assembled directly from driver.Compile with the same inputs
// (the integration tests rely on this).
func buildCompileResponse(c *driver.Compilation, rec *obs.Recorder, wantRemarks, wantSpans bool) CompileResponse {
	resp := CompileResponse{
		Stats:       c.Stats,
		CompileCost: c.CompileCost,
		CodeSize:    c.CodeSize,
	}
	if wantRemarks {
		resp.Remarks = rec.Remarks()
	}
	if wantSpans {
		resp.Phases = obs.Aggregate(rec.Spans()).Phases
	}
	return resp
}

// decodeRequest decodes a /compile, /run or /train body into req. A
// field req does not define is an error: ignoring it would compile a
// misspelled option under its default, and the farm tier would cache
// that answer under the misspelled body. As with json.Unmarshal,
// anything after the one JSON value is an error too.
func decodeRequest(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the request object")
	}
	return nil
}

// mustMarshal encodes a locally constructed value — request bodies in
// the load generator and tests, which marshal by construction (plain
// structs of strings and integers). Never used for response bodies;
// those go through jsonResult so an encoding bug degrades to a 500.
func mustMarshal(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal: %v", err))
	}
	return append(data, '\n')
}

// jsonResult is the single JSON encoder for 200 response bodies:
// compact encoding plus a trailing newline. Response types marshal by
// construction, but a shape bug must degrade to a diagnosable 500 with
// an error body — not a panic that kills the worker — so the failure is
// rendered and counted (serve.marshal-errors) instead.
func (s *Server) jsonResult(v any) *flightResult {
	data, err := json.Marshal(v)
	if err != nil {
		s.reg.Count("serve.marshal-errors", 1)
		return jsonError(http.StatusInternalServerError, "marshal response: "+err.Error())
	}
	return &flightResult{
		status:      http.StatusOK,
		contentType: "application/json",
		body:        append(data, '\n'),
	}
}
