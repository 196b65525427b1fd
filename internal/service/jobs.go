package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"replicatree/internal/cert"
	"replicatree/internal/solver"
)

// JobManager runs asynchronous batch jobs: POST /v2/batch enqueues a
// job, a bounded pool of runner goroutines drains the queue through
// solver.Batch, and GET /v2/jobs/{id} polls the outcome, rendered once
// when the job settles. The queue is bounded too — a full queue
// rejects the submit (the server turns that into 503) instead of
// buffering unboundedly.
type JobManager struct {
	mu     sync.Mutex
	jobs   map[string]*job
	done   []string // job IDs in completion order, for retention pruning
	retain int
	nextID uint64
	closed bool

	queue  chan *job
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	// metrics, when set (the server wires its own in), receives the
	// certificate counters from job settles.
	metrics *Metrics
}

type job struct {
	id     string
	tasks  []solver.Task
	opt    solver.Options
	status string
	// The wire rendering is produced once, when the batch settles
	// (outside the manager lock), so polls are O(1) copies and a done
	// job's response is frozen — in particular the per-task cached
	// flag is snapshotted at settle time and cannot flip if an
	// abandoned timed-out solve finishes later.
	results []TaskResultV2
	stats   *JobStats
	// Certificate state, built once at settle when the submit asked
	// for certificates: per-task certs (nil for failed tasks), the
	// Merkle tree over the successful tasks' leaf hashes (task order)
	// and each task's leaf index (-1 for failed tasks). All frozen
	// after settle, so proof serving needs no recomputation.
	certsOn bool
	certs   []*cert.Certificate
	merkle  *cert.Tree
	leafIdx []int
}

// cachedReporter lets job results report cache hits; the server's
// caching engine wrapper implements it.
type cachedReporter interface {
	LastCached() bool
}

// NewJobManager starts workers runner goroutines over a queue of
// queueCap pending jobs, retaining at most retain finished jobs for
// polling (oldest finished jobs are pruned first; 0 means a default
// of 1024).
func NewJobManager(workers, queueCap, retain int) *JobManager {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	if retain <= 0 {
		retain = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		jobs:   make(map[string]*job),
		retain: retain,
		queue:  make(chan *job, queueCap),
		ctx:    ctx,
		cancel: cancel,
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// Submit enqueues a job over the given tasks and returns its ID.
// certs requests per-task placement certificates, Merkle-batched at
// settle. It fails when the queue is full or the manager is closed.
func (m *JobManager) Submit(tasks []solver.Task, opt solver.Options, certs bool) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", fmt.Errorf("service: job manager is shut down")
	}
	m.nextID++
	j := &job{id: fmt.Sprintf("job-%06d", m.nextID), tasks: tasks, opt: opt, status: JobQueued, certsOn: certs}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		return "", fmt.Errorf("service: job queue full (%d pending)", cap(m.queue))
	}
	m.jobs[j.id] = j
	m.mu.Unlock()
	return j.id, nil
}

// GetV2 returns the job's rendering — per-task reports with the
// uniform bound/gap/proof metadata — or false if the ID is unknown
// (never submitted, or pruned after retention).
func (m *JobManager) GetV2(id string) (JobResponseV2, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobResponseV2{}, false
	}
	resp := JobResponseV2{JobID: j.id, Status: j.status, Stats: j.stats}
	if j.results != nil {
		resp.Results = append([]TaskResultV2(nil), j.results...)
	}
	if j.merkle != nil {
		resp.CertificateRoot = j.merkle.RootHex()
	}
	return resp, true
}

// Proof returns the certificate + inclusion proof document for one
// task of a settled certificates-enabled job. task is the task's
// caller-supplied ID, or (as a fallback, when no ID matches) its
// decimal batch index. The error is one of the Problem documents the
// /v2 proof endpoint serves verbatim.
func (m *JobManager) Proof(id, task string) (ProofResponseV2, *Problem) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		p := problem(ProblemUnknownJob, "unknown job", 404, fmt.Errorf("unknown job %q", id))
		return ProofResponseV2{}, &p
	}
	if !j.certsOn {
		p := problem(ProblemCertsDisabled, "certificates disabled for this job", 409,
			fmt.Errorf("job %q was submitted without \"certificates\": true; re-submit the batch with certificates enabled", id))
		return ProofResponseV2{}, &p
	}
	if j.status != JobDone || j.merkle == nil {
		p := problem(ProblemJobNotSettled, "job has not settled", 409,
			fmt.Errorf("job %q is %s; certificates are built when it settles", id, j.status))
		return ProofResponseV2{}, &p
	}
	idx := -1
	for i, t := range j.tasks {
		if t.ID != "" && t.ID == task {
			idx = i
			break
		}
	}
	if idx == -1 {
		if n, err := strconv.Atoi(task); err == nil && n >= 0 && n < len(j.tasks) {
			idx = n
		}
	}
	if idx == -1 {
		p := problem(ProblemUnknownTask, "unknown task", 404,
			fmt.Errorf("job %q has no task %q (address tasks by their id, or by batch index 0…%d)", id, task, len(j.tasks)-1))
		return ProofResponseV2{}, &p
	}
	if j.certs[idx] == nil {
		p := problem(ProblemUnknownTask, "task has no certificate", 404,
			fmt.Errorf("task %q of job %q failed; no certificate was issued", task, id))
		return ProofResponseV2{}, &p
	}
	proof, err := j.merkle.Proof(j.leafIdx[idx])
	if err != nil {
		p := problem(ProblemCertFailed, "certification failed", 500, err)
		return ProofResponseV2{}, &p
	}
	leaf, err := j.certs[idx].HashHex()
	if err != nil {
		p := problem(ProblemCertFailed, "certification failed", 500, err)
		return ProofResponseV2{}, &p
	}
	return ProofResponseV2{
		JobID:           j.id,
		TaskID:          j.tasks[idx].ID,
		TaskIndex:       idx,
		CertificateRoot: j.merkle.RootHex(),
		Certificate:     j.certs[idx],
		LeafHash:        leaf,
		Proof:           proof,
	}, nil
}

// Close stops accepting jobs, cancels the running ones and waits for
// the runners to exit. Queued-but-unstarted jobs finish in the
// "done" state with every task skipped.
func (m *JobManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

func (m *JobManager) runner() {
	defer m.wg.Done()
	for j := range m.queue {
		m.setStatus(j, JobRunning)
		results, st := solver.Batch(m.ctx, j.tasks, j.opt)
		trs := make([]TaskResultV2, len(results))
		for i, r := range results {
			trs[i] = taskResultV2(r)
		}
		stats := jobStats(st)
		// Certificates are built here, once, outside the manager lock
		// and entirely off the solve path: proofs are then O(log n)
		// table lookups at serve time.
		var (
			certs   []*cert.Certificate
			leafIdx []int
			merkle  *cert.Tree
		)
		if j.certsOn {
			certs, leafIdx, merkle = m.certifyResults(j.tasks, results)
		}
		m.mu.Lock()
		j.results = trs
		j.stats = stats
		j.certs = certs
		j.leafIdx = leafIdx
		j.merkle = merkle
		j.status = JobDone
		m.done = append(m.done, j.id)
		for len(m.done) > m.retain {
			delete(m.jobs, m.done[0])
			m.done = m.done[1:]
		}
		m.mu.Unlock()
	}
}

// certifyResults certifies every successful task of a settled batch
// and builds the Merkle tree over the resulting leaf hashes, in task
// order. Failed (or uncertifiable) tasks get a nil certificate and
// leaf index -1; uncertifiable successes additionally count as
// verification failures in the metrics — a served solution that
// cannot be certified is an internal invariant violation.
func (m *JobManager) certifyResults(tasks []solver.Task, results []solver.Result) ([]*cert.Certificate, []int, *cert.Tree) {
	certs := make([]*cert.Certificate, len(results))
	leafIdx := make([]int, len(results))
	leaves := make([][32]byte, 0, len(results))
	issued := 0
	for i, r := range results {
		leafIdx[i] = -1
		if r.Err != nil || r.Report.Solution == nil {
			continue
		}
		rep := r.Report
		c, err := solver.Certify(tasks[i].Request.Instance, &rep)
		if err == nil {
			var leaf [32]byte
			leaf, err = c.Hash()
			if err == nil {
				certs[i] = c
				leafIdx[i] = len(leaves)
				leaves = append(leaves, leaf)
				issued++
				continue
			}
		}
		if m.metrics != nil {
			m.metrics.CertFailure()
		}
	}
	var mt *cert.Tree
	if len(leaves) > 0 {
		// NewTree only errors on zero leaves, which the guard excludes.
		mt, _ = cert.NewTree(leaves)
	}
	if m.metrics != nil && issued > 0 {
		m.metrics.CertIssued(issued)
	}
	return certs, leafIdx, mt
}

func (m *JobManager) setStatus(j *job, status string) {
	m.mu.Lock()
	j.status = status
	m.mu.Unlock()
}

// taskName is the display name of a task's engine ("" for the nil
// engine of a malformed task, which Batch fails without dispatching).
func taskName(t solver.Task) string {
	if t.Engine == nil {
		return ""
	}
	return t.Engine.Name()
}

// taskCached reads the per-task cache flag when the task's engine
// reports one.
func taskCached(t solver.Task) bool {
	if c, ok := t.Engine.(cachedReporter); ok {
		return c.LastCached()
	}
	return false
}

func taskResultV2(r solver.Result) TaskResultV2 {
	tr := TaskResultV2{
		ID:        r.Task.ID,
		Solver:    taskName(r.Task),
		Cached:    taskCached(r.Task),
		ElapsedMS: durMS(r.Elapsed),
	}
	if r.Err != nil {
		tr.Error = r.Err.Error()
		return tr
	}
	rep := r.Report
	tr.OK = true
	tr.Engine = rep.Engine
	tr.Policy = rep.Policy.String()
	tr.LowerBound = rep.LowerBound
	tr.Gap = rep.Gap
	tr.Work = rep.Work
	tr.Proved = rep.Proved
	tr.Solution = rep.Solution
	if rep.Solution != nil {
		tr.Replicas = rep.Solution.NumReplicas()
	}
	return tr
}
