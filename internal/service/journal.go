package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"configsynth/internal/core"
	"configsynth/internal/faults"
	"configsynth/internal/netgen"
	"configsynth/internal/spec"
	"configsynth/internal/wal"
)

// This file is the service's durability layer: every accepted job is
// journaled to an internal/wal write-ahead log at submit, every
// terminal outcome at completion. Opening a service against an
// existing journal replays it — proven results re-seed the cache,
// accepted-but-unfinished jobs are re-enqueued under their original
// IDs (deduplicated by fingerprint against the re-seeded cache, so a
// replayed job whose answer is already proven completes instantly),
// and the journal is compacted down to what is still live.

// Journal record kinds.
const (
	recSubmit = "submit"
	recResult = "result"
)

// JobSource is the re-parseable origin of a submitted problem: the raw
// spec text, or the built-in paper example. The HTTP layer always
// provides one; programmatic submits may omit it, in which case the
// service derives a spec via WriteProblem when that round-trips to the
// same fingerprint, and otherwise journals the job as non-replayable.
type JobSource struct {
	Spec    string `json:"spec,omitempty"`
	Example bool   `json:"example,omitempty"`
}

// submitRecord journals one accepted job.
type submitRecord struct {
	ID          string `json:"id"`
	Mode        Mode   `json:"mode"`
	Fingerprint string `json:"fp"`
	JobSource
	TimeoutMS int64 `json:"timeout_ms"`
}

// resultRecord journals one terminal outcome.
type resultRecord struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Mode        Mode     `json:"mode"`
	Fingerprint string   `json:"fp"`
	Result      *Result  `json:"result,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// journalAppend writes one record through the fault-injection gate.
// With no journal configured it is a no-op.
func (s *Service) journalAppend(kind string, v any) error {
	if s.wal == nil {
		return nil
	}
	if err := faults.Err(faults.ServiceJournalErr); err != nil {
		return err
	}
	if err := s.wal.Append(kind, v); err != nil {
		return err
	}
	// Wake the cluster WAL shipper (when wired) so freshly journaled
	// records reach the follower with sub-interval latency.
	s.peerMu.Lock()
	notify := s.journalNotify
	s.peerMu.Unlock()
	if notify != nil {
		notify()
	}
	return nil
}

// journalResult records a job's terminal state. Failures here are
// counted but do not fail the job: the result has already been
// delivered in memory, and the worst a lost result record costs is a
// redundant re-solve after a crash (answering with an identical,
// fingerprint-keyed result).
func (s *Service) journalResult(j *Job) {
	if s.wal == nil {
		return
	}
	res, jerr := j.Result()
	rr := resultRecord{
		ID:          j.ID,
		State:       j.State(),
		Mode:        j.Mode,
		Fingerprint: j.Fingerprint,
		Result:      res,
	}
	if jerr != nil {
		rr.Error = jerr.Error()
	}
	if err := s.journalAppend(recResult, rr); err != nil {
		s.journalErrors.Add(1)
	}
}

// sourceFor derives the journaled form of a submission that came with
// none: a WriteProblem rendering that provably re-scans to the same
// fingerprint. nil means the job cannot be replayed (it is journaled
// anyway, so a crash converts it into an explicit failure rather than
// silence).
func sourceFor(prob *core.Problem, fp string) *JobSource {
	var sb strings.Builder
	if err := spec.WriteProblem(&sb, prob); err != nil {
		return nil
	}
	re, err := spec.Scan(sb.String())
	if err != nil || re.Fingerprint() != fp {
		return nil
	}
	return &JobSource{Spec: sb.String()}
}

// scanned is a submission known by its key and fingerprint before its
// problem is built: a spec that passed every check of spec.Scan, or a
// whole problem that passed Validate. A cache hit needs no more than the
// fingerprint.
type scanned struct {
	key  spec.Key
	fp   string // key at the submission's thresholds
	spec *spec.Spec
	prob *core.Problem // set for a problem submitted whole; spec is nil then
}

// problem is the submission's problem, built on a miss. A problem
// built from a spec is validated like every submitted problem; Scan has
// made Validate's checks already, so this cannot fail unless the two
// drift.
func (in scanned) problem() (*core.Problem, error) {
	if in.prob != nil {
		return in.prob, nil
	}
	p := in.spec.Problem()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// scan reads a non-empty source and keys it. A spec is scanned, not
// built; the paper example is built and validated, as it is small.
func (src *JobSource) scan() (scanned, error) {
	if src.Example {
		p := netgen.PaperExample()
		if err := p.Validate(); err != nil {
			return scanned{}, err
		}
		k := spec.KeyOf(p)
		return scanned{key: k, fp: k.At(p.Thresholds), prob: p}, nil
	}
	sp, err := spec.Scan(src.Spec)
	if err != nil {
		return scanned{}, err
	}
	k := sp.Key()
	return scanned{key: k, fp: k.At(sp.Thresholds()), spec: sp}, nil
}

// check scans a journaled or shipped source and confirms it still hashes
// to the fingerprint it was accepted under, without building its
// problem: a caller whose cache answers the fingerprint never needs it.
// Journal replay and takeover adoption both come through here: a
// mismatch means two builds (or two nodes) disagree about
// canonicalization, and the job must fail rather than be solved and
// cached under the wrong key.
func (src *JobSource) check(fingerprint string) (scanned, error) {
	if src == nil || (!src.Example && src.Spec == "") {
		return scanned{}, errors.New("job carries no replayable source")
	}
	in, err := src.scan()
	if err != nil {
		return scanned{}, fmt.Errorf("re-parsing job spec: %w", err)
	}
	if in.fp != fingerprint {
		return scanned{}, fmt.Errorf("job spec re-parses to fingerprint %.12s, want %.12s", in.fp, fingerprint)
	}
	return in, nil
}

// problem rebuilds the problem a job was submitted with from its
// journaled or shipped source, once check has confirmed the source still
// hashes to the job's fingerprint.
func (src *JobSource) problem(fingerprint string) (*core.Problem, error) {
	in, err := src.check(fingerprint)
	if err != nil {
		return nil, err
	}
	return in.problem()
}

// replayState is what a journal scan recovers.
type replayState struct {
	pending []submitRecord // accepted jobs with no terminal record, in order
	proven  []resultRecord // cache-seedable results, oldest first
	maxID   int64          // highest numeric job ID seen
}

// scanJournal folds the raw WAL records into replay state. idPrefix is
// the scanning node's job-ID prefix: only IDs this node minted advance
// maxID, so adopting a peer's journal never perturbs the local ID
// sequence.
func scanJournal(records []wal.Record, idPrefix string) replayState {
	var st replayState
	type pendingEntry struct {
		rec  submitRecord
		live bool
	}
	order := make([]string, 0, len(records))
	submits := make(map[string]*pendingEntry, len(records))
	for _, r := range records {
		switch r.Kind {
		case recSubmit:
			var sr submitRecord
			if json.Unmarshal(r.Data, &sr) != nil || sr.ID == "" {
				continue
			}
			if _, dup := submits[sr.ID]; dup {
				continue
			}
			submits[sr.ID] = &pendingEntry{rec: sr, live: true}
			order = append(order, sr.ID)
			var n int64
			local := strings.TrimPrefix(sr.ID, idPrefix)
			if _, err := fmt.Sscanf(local, "j%d", &n); err == nil && n > st.maxID {
				st.maxID = n
			}
		case recResult:
			var rr resultRecord
			if json.Unmarshal(r.Data, &rr) != nil || rr.ID == "" {
				continue
			}
			if e, ok := submits[rr.ID]; ok {
				e.live = false
			}
			// Only proven results re-seed a cache; degraded and
			// budget-truncated answers were for their one client.
			if rr.State == StateDone && proven(rr.Result) {
				st.proven = append(st.proven, rr)
			}
		}
	}
	for _, id := range order {
		if e := submits[id]; e.live {
			st.pending = append(st.pending, e.rec)
		}
	}
	return st
}

// compactionRecords rebuilds the minimal journal: still-pending
// submits plus the most recent cache-seedable results (bounded by the
// cache size — older proven results would not fit the cache anyway).
func compactionRecords(st replayState, cacheEntries int) ([]wal.Record, error) {
	proven := st.proven
	if len(proven) > cacheEntries {
		proven = proven[len(proven)-cacheEntries:]
	}
	recs := make([]wal.Record, 0, len(proven)+len(st.pending))
	for _, rr := range proven {
		data, err := json.Marshal(rr)
		if err != nil {
			return nil, err
		}
		recs = append(recs, wal.Record{Kind: recResult, Data: data})
	}
	for _, sr := range st.pending {
		data, err := json.Marshal(sr)
		if err != nil {
			return nil, err
		}
		recs = append(recs, wal.Record{Kind: recSubmit, Data: data})
	}
	return recs, nil
}
