package service

import (
	"time"

	"replicatree/internal/solver"
)

// Wire types shared across the HTTP/JSON API (the endpoint-specific
// bodies live next to their handlers in v2.go and instances.go).
// Instances and solutions reuse the canonical core JSON encodings, so
// anything cmd/treegen emits can be posted verbatim.

// BatchAccepted is the 202 body of POST /v2/batch.
type BatchAccepted struct {
	JobID string `json:"job_id"`
	// StatusURL is the polling endpoint for the job.
	StatusURL string `json:"status_url"`
	Tasks     int    `json:"tasks"`
}

// Job statuses, in lifecycle order.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// JobStats summarises a finished job (mirrors solver.Stats).
type JobStats struct {
	Tasks    int     `json:"tasks"`
	Solved   int     `json:"solved"`
	Failed   int     `json:"failed"`
	Skipped  int     `json:"skipped"`
	Replicas int     `json:"replicas"`
	WallMS   float64 `json:"wall_ms"`
	WorkMS   float64 `json:"work_ms"`
}

func jobStats(st solver.Stats) *JobStats {
	return &JobStats{
		Tasks:    st.Tasks,
		Solved:   st.Solved,
		Failed:   st.Failed,
		Skipped:  st.Skipped,
		Replicas: st.Replicas,
		WallMS:   durMS(st.Elapsed),
		WorkMS:   durMS(st.Work),
	}
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
