// Durable job state, split from the in-memory queue behind the Store
// interface. The queue decides WHAT to persist (every job it knows —
// queued specs waiting their turn and terminal jobs with their full
// results, a running job demoted to queued so an interrupted run
// re-executes from scratch); a Store decides WHERE and answers for the
// envelope discipline (magic, version, payload length, CRC-32C, atomic
// temp-file+rename saves — see internal/envelope). Two stores exist:
//
//   - FileStore: one MINJOBS file, the single-process layout. Its byte
//     format is unchanged from before the Store split, so existing
//     deployments load their stores unmodified.
//   - LeasedDirStore (leasedstore.go): a directory of per-venue MINJOBS
//     partitions, each claimed through a cluster.Lease, so N shard
//     processes share one jobs directory without double-running a job.
package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"minaret/internal/batch"
	"minaret/internal/envelope"
)

const (
	storeMagic = "MINJOBS\x00"
	// storeVersion is what save writes. Version 1 lacked the spec's
	// priority and callback_url fields; v1 files still load (the new
	// fields default), so upgrading a deployment never drops its queue.
	storeVersion    = 2
	storeMinVersion = 1
	// maxStorePayload caps what Load will allocate for a corrupted
	// length field.
	maxStorePayload = 1 << 30
)

// StoredJob is one job on the wire — the unit a Store persists and
// returns. Exported so Store implementations outside this file (and
// the queue's adoption path) share one vocabulary.
type StoredJob struct {
	Spec        Spec           `json:"spec"`
	Seq         uint64         `json:"seq"`
	State       State          `json:"state"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   time.Time      `json:"started_at"`
	FinishedAt  time.Time      `json:"finished_at"`
	Progress    *Progress      `json:"progress,omitempty"`
	Error       string         `json:"error,omitempty"`
	Result      *batch.Summary `json:"result,omitempty"`
}

// Store is the queue's persistence seam. Save receives the full
// persistable set on every transition; Load returns whatever a
// previous process left behind (ok=false is the normal cold start).
// Close releases whatever the store holds (claimed leases, open
// handles) — the queue calls it from Stop after the final save.
type Store interface {
	Load() (jobs []StoredJob, savedAt time.Time, ok bool, err error)
	Save(savedAt time.Time, jobs []StoredJob) error
	Close() error
}

// Reclaimer is the optional Store extension for stores that can claim
// MORE work after boot — a LeasedDirStore taking over a dead peer's
// expired venue partitions. The queue polls it (Options.ReclaimInterval)
// and adopts whatever comes back.
type Reclaimer interface {
	// Reclaim attempts to claim partitions not yet held and returns
	// their jobs; an empty slice means nothing new was claimable.
	Reclaim() ([]StoredJob, error)
}

// storePayload is the JSON body inside the envelope.
type storePayload struct {
	SavedAt time.Time   `json:"saved_at"`
	Jobs    []StoredJob `json:"jobs"`
}

// RestoreStats reports what a Load brought back.
type RestoreStats struct {
	// Resumed jobs were queued (or running) when the file was saved and
	// are queued again — they will run in this process.
	Resumed int `json:"resumed"`
	// Finished jobs are terminal; their results are fetchable again.
	Finished int `json:"finished"`
	// Dropped jobs failed to round-trip individually (an undecodable
	// spec) and were skipped.
	Dropped int `json:"dropped"`
	// SavedAt is when the store was written.
	SavedAt time.Time `json:"saved_at"`
}

// encodeStore writes the enveloped store for the given records.
func encodeStore(w io.Writer, savedAt time.Time, jobs []StoredJob) error {
	payload, err := json.Marshal(storePayload{SavedAt: savedAt, Jobs: jobs})
	if err != nil {
		return fmt.Errorf("job store encode: %w", err)
	}
	return envelope.Encode(w, storeMagic, storeVersion, payload)
}

// decodeStoreFile reads and verifies an enveloped store file. A bad
// magic, unsupported version, truncated payload or checksum mismatch
// rejects the file as a whole, with the offending path in the error;
// any version back to storeMinVersion decodes. A missing file is
// ok=false.
func decodeStoreFile(path string) (storePayload, bool, error) {
	var p storePayload
	_, payload, ok, err := envelope.DecodeFileRange(path, storeMagic, storeMinVersion, storeVersion, maxStorePayload, "job store")
	if err != nil || !ok {
		return p, false, err
	}
	if err := json.Unmarshal(payload, &p); err != nil {
		return p, false, fmt.Errorf("%s: job store decode: %w", path, err)
	}
	return p, true, nil
}

// FileStore persists the whole queue in one MINJOBS envelope file —
// the single-process layout, byte-for-byte what the queue wrote before
// persistence moved behind the Store interface.
type FileStore struct {
	// Path names the store file.
	Path string
}

// Load reads the file; a missing file is the normal cold start.
func (s *FileStore) Load() ([]StoredJob, time.Time, bool, error) {
	p, ok, err := decodeStoreFile(s.Path)
	if err != nil || !ok {
		return nil, time.Time{}, false, err
	}
	return p.Jobs, p.SavedAt, true, nil
}

// Save rewrites the file atomically (temp file + rename).
func (s *FileStore) Save(savedAt time.Time, jobs []StoredJob) error {
	return envelope.WriteFileAtomic(s.Path, func(w io.Writer) error {
		return encodeStore(w, savedAt, jobs)
	})
}

// Close is a no-op; a FileStore holds nothing between calls.
func (s *FileStore) Close() error { return nil }

// persistableLocked snapshots the jobs worth writing, under q.mu, with
// staged (when non-nil) written in place of the live record of its ID.
func (q *Queue) persistableLocked(staged *record) []StoredJob {
	out := make([]StoredJob, 0, len(q.jobs))
	for id, rec := range q.jobs {
		if staged != nil && id == staged.spec.ID {
			rec = staged
		}
		sj := StoredJob{
			Spec:        rec.spec,
			Seq:         rec.seq,
			State:       rec.state,
			SubmittedAt: rec.submittedAt,
		}
		switch {
		case rec.state == StateRunning:
			// Recorded as queued: a run that hasn't finished by the time
			// this file is read again must start over.
			sj.State = StateQueued
		case rec.state.Terminal():
			sj.StartedAt = rec.startedAt
			sj.FinishedAt = rec.finishedAt
			p := rec.progress
			p.Statuses = append([]string(nil), rec.progress.Statuses...)
			sj.Progress = &p
			sj.Error = rec.errMsg
			sj.Result = rec.result
		}
		out = append(out, sj)
	}
	return out
}

// save writes the store. A queue without a Store is memory-only and
// save is a no-op.
//
// Each save rewrites the full persistable set, including every retained
// terminal result — the simple-and-durable trade: an accepted job is on
// disk before its 202 leaves the building, at the cost of O(retained
// jobs) write amplification per transition. RetainTerminal bounds that
// cost; an incremental (append-style) store is the next step if it ever
// shows up in profiles.
func (q *Queue) save() error { return q.saveStaged(nil, nil) }

// saveStaged is save with staged, a record's next state not yet applied
// to the live record, written in its place; publish then runs under q.mu
// once the write has returned, and applies it. saveMu is held across
// snapshot, write AND publish: if a slower goroutine could snapshot first
// but rename last, an older state would overwrite a newer one on disk,
// and a save between write and publish would snapshot the record's
// superseded state.
func (q *Queue) saveStaged(staged *record, publish func()) error {
	q.saveMu.Lock()
	defer q.saveMu.Unlock()
	var err error
	if q.store != nil {
		q.mu.Lock()
		jobs := q.persistableLocked(staged)
		savedAt := q.now().UTC()
		q.mu.Unlock()
		err = q.store.Save(savedAt, jobs)
	}
	if publish != nil {
		q.mu.Lock()
		publish()
		q.mu.Unlock()
	}
	return err
}

// saveLogged is save for the transition paths, where a disk hiccup
// must cost durability, not the request.
func (q *Queue) saveLogged() {
	if err := q.save(); err != nil {
		q.opts.Logf("job store save: %v", err)
	}
}

// adoptLocked folds one stored job into the queue: queued (or
// interrupted-running) jobs are queued again, terminal jobs become
// fetchable with their results. Returns what became of it: resumed,
// finished, or dropped. Callers hold q.mu.
func (q *Queue) adoptLocked(sj StoredJob) (resumed, finished bool) {
	if sj.Spec.ID == "" || len(sj.Spec.Manuscripts) == 0 {
		return false, false
	}
	if _, dup := q.jobs[sj.Spec.ID]; dup {
		return false, false
	}
	// v1 stores predate priorities; an unparseable label (a
	// hand-edited file) demotes to normal rather than dropping the
	// job.
	if p, err := ParsePriority(string(sj.Spec.Priority)); err == nil {
		sj.Spec.Priority = p
	} else {
		sj.Spec.Priority = PriorityNormal
	}
	rec := &record{
		spec:        sj.Spec,
		seq:         q.seq,
		version:     1,
		state:       sj.State,
		submittedAt: sj.SubmittedAt,
		startedAt:   sj.StartedAt,
		finishedAt:  sj.FinishedAt,
		errMsg:      sj.Error,
		result:      sj.Result,
	}
	q.seq++
	if sj.Progress != nil {
		rec.progress = *sj.Progress
	} else {
		rec.progress = Progress{
			Total:    len(sj.Spec.Manuscripts),
			Statuses: make([]string, len(sj.Spec.Manuscripts)),
		}
	}
	switch {
	case sj.State.Terminal():
		q.jobs[rec.spec.ID] = rec
		q.terminalOrder = append(q.terminalOrder, rec.spec.ID)
		return false, true
	default:
		// Queued — and, defensively, any unknown state: losing a job
		// to an unrecognized label would be worse than re-running it.
		rec.state = StateQueued
		rec.startedAt = time.Time{}
		q.jobs[rec.spec.ID] = rec
		q.enqueueLocked(rec)
		return true, false
	}
}

// Load restores the store into the queue: previously queued (or
// interrupted-running) jobs are queued again in their original submit
// order, terminal jobs become fetchable with their results. A missing
// store is the normal cold start (ok=false, no error); a corrupt or
// incompatible one is rejected whole, with the offending file named in
// the error. Call before Start, on an empty queue.
func (q *Queue) Load() (stats RestoreStats, ok bool, err error) {
	if q.store == nil {
		return RestoreStats{}, false, nil
	}
	jobs, savedAt, ok, err := q.store.Load()
	if err != nil {
		return RestoreStats{}, false, fmt.Errorf("restore: %w", err)
	}
	if !ok {
		return RestoreStats{}, false, nil
	}
	stats.SavedAt = savedAt

	// Queue resumed jobs in original submit order.
	sorted := append([]StoredJob(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	q.mu.Lock()
	defer q.mu.Unlock()
	for _, sj := range sorted {
		switch resumed, finished := q.adoptLocked(sj); {
		case resumed:
			stats.Resumed++
		case finished:
			stats.Finished++
		default:
			stats.Dropped++
		}
	}
	q.evictTerminalLocked()
	q.cond.Broadcast()
	return stats, true, nil
}

// Reclaim asks a Reclaimer store for newly claimable work — a dead
// peer's venue partitions whose leases have expired — and adopts it:
// that shard's queued jobs run here, its finished results become
// fetchable here. Returns how many jobs were adopted. A queue over a
// non-Reclaimer store (or no store) reclaims nothing, without error.
func (q *Queue) Reclaim() (adopted int, err error) {
	rc, ok := q.store.(Reclaimer)
	if !ok {
		return 0, nil
	}
	jobs, err := rc.Reclaim()
	if len(jobs) == 0 {
		return 0, err
	}
	sorted := append([]StoredJob(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return 0, err
	}
	for _, sj := range sorted {
		resumed, finished := q.adoptLocked(sj)
		if resumed || finished {
			adopted++
		}
	}
	q.evictTerminalLocked()
	if adopted > 0 {
		q.cond.Broadcast()
		q.bumpChangedLocked()
	}
	q.mu.Unlock()
	if adopted > 0 {
		// Persist the adoption under our own leases right away, so a
		// crash between reclaim and the next transition doesn't leave
		// the work recorded only in the dead peer's partition.
		q.saveLogged()
	}
	return adopted, err
}

// reclaimLoop polls the store for claimable work until Stop. Runs only
// for Reclaimer stores with a positive ReclaimInterval.
func (q *Queue) reclaimLoop() {
	defer q.wg.Done()
	t := time.NewTicker(q.opts.ReclaimInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			n, err := q.Reclaim()
			if err != nil {
				q.opts.Logf("job store reclaim: %v", err)
			}
			if n > 0 {
				q.opts.Logf("job store reclaim: adopted %d job(s) from expired peer leases", n)
			}
		case <-q.baseCtx.Done():
			return
		}
	}
}
