// Package store implements the storage boxes of the paper's Figure 1: the
// edge store that retains semantically encoded video for post-event
// analysis (seekable by event/GOP), and the cloud results database mapping
// frame IDs to detected object labels.
package store

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"sieve/internal/codec"
	"sieve/internal/container"
	"sieve/internal/labels"
)

// ResultsDB is the cloud-side store of inference results: "a list of tuples
// where each tuple consists of frame ID and the object names that appear in
// the frame". It is safe for concurrent use.
//
// Each camera's results are one frameIndex, sorted by frame ID, so reads
// that follow SiEVE's propagation rule (LabelsAt, Track, Query) walk the
// intervals between analysed frames instead of sorting or scanning.
//
// Every Put is also appended to an ordered change log, which is what the
// cluster's streaming shard sync ships over the uplink: DeltaSince cuts a
// contiguous slice of the log, ApplyDelta replays it into a shadow replica
// with cursor validation. Version() — the log length — is the replication
// cursor.
type ResultsDB struct {
	mu       sync.RWMutex
	byCamera map[string]*frameIndex
	// log records every Put in order; log[i] is change i and Version()
	// (== len(log)) is the next cursor.
	log []DeltaEntry
}

// frameIndex is one camera's analysed frames in ascending frame ID, each
// with its labels: under the propagation rule sets[k] holds on frames
// [ids[k], ids[k+1]), and on every later frame for the last k.
type frameIndex struct {
	ids  []int
	sets []labels.Set
}

// set stores ls at frame id: an append when id is past the last frame (an
// in-order Put), an overwrite when id is stored, an insertion otherwise.
func (ix *frameIndex) set(id int, ls labels.Set) {
	if n := len(ix.ids); n == 0 || ix.ids[n-1] < id {
		ix.ids, ix.sets = append(ix.ids, id), append(ix.sets, ls)
		return
	}
	k, found := slices.BinarySearch(ix.ids, id)
	if found {
		ix.sets[k] = ls
		return
	}
	ix.ids, ix.sets = slices.Insert(ix.ids, k, id), slices.Insert(ix.sets, k, ls)
}

// at returns the position of the last frame at or before id, -1 when every
// stored frame is after it. A nil index has none.
func (ix *frameIndex) at(id int) int {
	if ix == nil {
		return -1
	}
	k, found := slices.BinarySearch(ix.ids, id)
	if !found {
		k--
	}
	return k
}

// span returns the frames of [from, to) on which sets[k] holds.
func (ix *frameIndex) span(k, from, to int) (lo, hi int) {
	lo, hi = max(ix.ids[k], from), to
	if k+1 < len(ix.ids) {
		hi = min(hi, ix.ids[k+1])
	}
	return lo, hi
}

// NewResultsDB returns an empty database.
func NewResultsDB() *ResultsDB {
	return &ResultsDB{byCamera: make(map[string]*frameIndex)}
}

// Put records the labels detected on one (camera, frame).
func (db *ResultsDB) Put(camera string, frameID int, ls labels.Set) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.put(camera, frameID, ls)
}

// put applies and logs one change; callers hold db.mu.
func (db *ResultsDB) put(camera string, frameID int, ls labels.Set) {
	ix, ok := db.byCamera[camera]
	if !ok {
		ix = &frameIndex{}
		db.byCamera[camera] = ix
	}
	ix.set(frameID, ls)
	db.log = append(db.log, DeltaEntry{Camera: camera, Frame: frameID, Labels: ls})
}

// Get returns the labels stored for an exact frame.
func (db *ResultsDB) Get(camera string, frameID int) (labels.Set, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix := db.byCamera[camera]
	if k := ix.at(frameID); k >= 0 && ix.ids[k] == frameID {
		return ix.sets[k], true
	}
	return nil, false
}

// LabelsAt returns the effective labels of any frame under SiEVE's
// propagation rule: the labels of the nearest analysed frame at or before
// frameID (empty if none).
func (db *ResultsDB) LabelsAt(camera string, frameID int) labels.Set {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix := db.byCamera[camera]
	if k := ix.at(frameID); k >= 0 {
		return ix.sets[k]
	}
	return nil
}

// Cameras returns the sorted camera keys with at least one stored result.
func (db *ResultsDB) Cameras() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.byCamera))
	for cam := range db.byCamera {
		out = append(out, cam)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of stored (camera, frame) entries.
func (db *ResultsDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, ix := range db.byCamera {
		n += len(ix.ids)
	}
	return n
}

// AnalysedFrames returns the sorted frame IDs with stored results.
func (db *ResultsDB) AnalysedFrames(camera string) []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var ids []int
	if ix := db.byCamera[camera]; ix != nil {
		ids = ix.ids
	}
	return append(make([]int, 0, len(ids)), ids...)
}

// Track materialises the propagated per-frame label track for frames
// [0, numFrames) — what a downstream application (or the accuracy metric)
// consumes. A track of numFrames <= 0 is empty.
func (db *ResultsDB) Track(camera string, numFrames int) labels.Track {
	tr := make(labels.Track, max(numFrames, 0))
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix := db.byCamera[camera]
	for k := max(ix.at(0), 0); ix != nil && k < len(ix.ids) && ix.ids[k] < numFrames; k++ {
		lo, hi := ix.span(k, 0, numFrames)
		for i := lo; i < hi; i++ {
			tr[i] = ix.sets[k]
		}
	}
	return tr
}

// Query returns the frames in [from, to) whose effective labels contain
// class — the "find every car" query the paper's storage layer serves —
// in ascending order, nil when there are none. Frames before 0 do not
// exist: a negative from reads as 0. It walks the camera's index once to
// size the answer and once to fill it.
func (db *ResultsDB) Query(camera, class string, from, to int) []int {
	from = max(from, 0)
	db.mu.RLock()
	defer db.mu.RUnlock()
	ix := db.byCamera[camera]
	first := max(ix.at(from), 0)
	n := 0
	for k := first; ix != nil && k < len(ix.ids) && ix.ids[k] < to; k++ {
		if lo, hi := ix.span(k, from, to); hi > lo && ix.sets[k].Contains(class) {
			n += hi - lo
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for k := first; len(out) < n; k++ {
		if lo, hi := ix.span(k, from, to); hi > lo && ix.sets[k].Contains(class) {
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
		}
	}
	return out
}

// MergeConflictError reports the first (camera, frame) pair whose stored
// labels disagree between the two databases being merged. "First" is
// deterministic: cameras and frames are compared in sorted order.
type MergeConflictError struct {
	Camera         string
	Frame          int
	Have, Incoming labels.Set
}

func (e *MergeConflictError) Error() string {
	return fmt.Sprintf("store: merge conflict at %s/%d: have [%s], incoming [%s]",
		e.Camera, e.Frame, e.Have.Key(), e.Incoming.Key())
}

// Merge folds other into db — the primitive the cluster coordinator builds
// its global view on. Semantics:
//
//   - entries for (camera, frame) pairs absent from db are inserted;
//   - entries present in both with Equal label sets are idempotent no-ops
//     (two sites re-analysing the same frame agree silently);
//   - entries present in both with different label sets are a conflict:
//     Merge returns a *MergeConflictError naming the first conflicting pair
//     in (camera, frame) sorted order and db is left completely unchanged
//     (validation runs before any write, so a failed Merge is atomic);
//   - a nil or empty other — and merging a database into itself — is a
//     no-op.
//
// Merge snapshots other under its read lock before writing db, so merging
// two databases into each other concurrently cannot deadlock.
func (db *ResultsDB) Merge(other *ResultsDB) error {
	if other == nil || other == db {
		return nil
	}
	// Snapshot the incoming shard (label sets are canonical and treated as
	// immutable, so sharing the slices is safe). Each index is already in
	// frame order.
	other.mu.RLock()
	in := make(map[string]frameIndex, len(other.byCamera))
	for cam, ix := range other.byCamera {
		in[cam] = frameIndex{ids: slices.Clone(ix.ids), sets: slices.Clone(ix.sets)}
	}
	other.mu.RUnlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	cams := make([]string, 0, len(in))
	for cam := range in {
		cams = append(cams, cam)
	}
	sort.Strings(cams)
	// Phase 1: validate, in (camera, frame) order so the reported conflict
	// is deterministic.
	for _, cam := range cams {
		have := db.byCamera[cam]
		for j, id := range in[cam].ids {
			if k := have.at(id); k >= 0 && have.ids[k] == id && !have.sets[k].Equal(in[cam].sets[j]) {
				return &MergeConflictError{Camera: cam, Frame: id, Have: have.sets[k], Incoming: in[cam].sets[j]}
			}
		}
	}
	// Phase 2: apply, in the same order so the change log stays
	// deterministic (a merge is logged like any other sequence of Puts).
	for _, cam := range cams {
		for j, id := range in[cam].ids {
			db.put(cam, id, in[cam].sets[j])
		}
	}
	return nil
}

// DeltaEntry is one logged Put.
type DeltaEntry struct {
	Camera string
	Frame  int
	Labels labels.Set
}

// Delta is a contiguous slice of a database's change log covering cursors
// [From, To): applying it to a replica at cursor From brings the replica to
// cursor To.
type Delta struct {
	From, To int64
	Entries  []DeltaEntry
}

// Version returns the database's replication cursor: the number of changes
// logged so far. A replica built purely from ApplyDelta has the same
// Version as the span of deltas it has absorbed.
func (db *ResultsDB) Version() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return int64(len(db.log))
}

// ErrDeltaCursor reports a DeltaSince/ApplyDelta cursor outside the valid
// range — the replica and the source have diverged and need a full resync.
var ErrDeltaCursor = fmt.Errorf("store: delta cursor out of range")

// DeltaSince cuts the change log from cursor `from` to the current version.
// The returned entries alias the log (label sets are immutable), so the
// delta is cheap and safe to ship. from == Version() yields an empty delta.
func (db *ResultsDB) DeltaSince(from int64) (Delta, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	to := int64(len(db.log))
	if from < 0 || from > to {
		return Delta{}, fmt.Errorf("%w: from %d, log [0,%d]", ErrDeltaCursor, from, to)
	}
	return Delta{From: from, To: to, Entries: db.log[from:to]}, nil
}

// ApplyDelta replays a delta into db, which must be a replica at cursor
// d.From or beyond:
//
//   - d.From == Version(): the common case; every entry applies.
//   - d.To <= Version(): a duplicate retransmission; no-op.
//   - d.From < Version() < d.To: an overlapping retransmission (the sender
//     retried after a partial apply was acknowledged lost); only the unseen
//     suffix applies.
//   - d.From > Version(): a gap — the replica missed a delta. Nothing is
//     applied and ErrDeltaCursor is returned; the caller must resync from
//     its actual cursor.
//
// Idempotency under retransmission is what lets the delta-sync retry loop
// resend without double-counting.
func (db *ResultsDB) ApplyDelta(d Delta) error {
	if d.To-d.From != int64(len(d.Entries)) {
		return fmt.Errorf("%w: span [%d,%d) carries %d entries", ErrDeltaCursor, d.From, d.To, len(d.Entries))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	v := int64(len(db.log))
	if d.From > v {
		return fmt.Errorf("%w: delta starts at %d, replica at %d", ErrDeltaCursor, d.From, v)
	}
	if d.To <= v {
		return nil
	}
	for _, e := range d.Entries[v-d.From:] {
		db.put(e.Camera, e.Frame, e.Labels)
	}
	return nil
}

// MaxFrame returns the highest frame ID stored for a camera, or -1 when the
// camera has no entries or only frames before -1. The failover controller
// uses the coordinator replica's MaxFrame as the applied cursor when
// picking a migrated feed's resume point.
func (db *ResultsDB) MaxFrame(camera string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if ix := db.byCamera[camera]; ix != nil {
		return max(ix.ids[len(ix.ids)-1], -1)
	}
	return -1
}

// persisted is the JSON schema of a saved database.
type persisted struct {
	Cameras map[string]map[string][]string `json:"cameras"`
}

// Save writes the database as JSON. The write is atomic: the JSON is
// written to a temp file in the destination directory and renamed over
// path, so a crash mid-save (a dying edge site syncing its shard) can never
// leave a torn, half-written file behind — readers see either the old
// complete database or the new one.
func (db *ResultsDB) Save(path string) error {
	data, err := db.MarshalIndent()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: save results: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save results: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save results: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save results: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save results: %w", err)
	}
	return nil
}

// MarshalIndent renders the database in its persisted JSON schema. Map keys
// are sorted by encoding/json, so equal databases always marshal to
// identical bytes — the property the cluster equivalence tests pin.
func (db *ResultsDB) MarshalIndent() ([]byte, error) {
	db.mu.RLock()
	p := persisted{Cameras: make(map[string]map[string][]string, len(db.byCamera))}
	for cam, ix := range db.byCamera {
		fm := make(map[string][]string, len(ix.ids))
		for k, id := range ix.ids {
			fm[fmt.Sprint(id)] = []string(ix.sets[k])
		}
		p.Cameras[cam] = fm
	}
	db.mu.RUnlock()
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return nil, fmt.Errorf("store: marshal results: %w", err)
	}
	return data, nil
}

// LoadResultsDB reads a database written by Save.
func LoadResultsDB(path string) (*ResultsDB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("store: parse results: %w", err)
	}
	// Put in (camera, frame) order: every Put is then an append, and the
	// loaded change log does not depend on map iteration.
	type entry struct {
		id  int
		key string
	}
	db := NewResultsDB()
	cams := make([]string, 0, len(p.Cameras))
	for cam := range p.Cameras {
		cams = append(cams, cam)
	}
	sort.Strings(cams)
	for _, cam := range cams {
		fm := p.Cameras[cam]
		entries := make([]entry, 0, len(fm))
		for idStr := range fm {
			var id int
			if _, err := fmt.Sscanf(idStr, "%d", &id); err != nil {
				return nil, fmt.Errorf("store: bad frame id %q: %w", idStr, err)
			}
			entries = append(entries, entry{id, idStr})
		}
		slices.SortFunc(entries, func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.id, b.id), strings.Compare(a.key, b.key))
		})
		for _, e := range entries {
			db.Put(cam, e.id, labels.NewSet(fm[e.key]...))
		}
	}
	return db, nil
}

// EdgeStore retains semantically encoded streams per camera, in memory,
// with byte accounting against a configurable quota. The paper notes SiEVE
// "assumes the edge location has access to non-trivial storage capacity";
// the quota makes that assumption explicit and testable.
type EdgeStore struct {
	mu     sync.RWMutex
	quota  int64
	used   int64
	videos map[string]*edgeEntry
	seq    int64 // insertion counter driving deterministic eviction order
}

// edgeEntry is one stored stream plus its pin count and age.
type edgeEntry struct {
	buf  *container.Buffer
	seq  int64 // last Put's sequence number; lowest evicts first
	pins int   // > 0 while a replay holds the stream open
}

// NewEdgeStore creates a store with the given byte quota (0 = unlimited).
func NewEdgeStore(quota int64) *EdgeStore {
	return &EdgeStore{quota: quota, videos: make(map[string]*edgeEntry)}
}

// ErrQuotaExceeded is returned when a stream does not fit.
var ErrQuotaExceeded = fmt.Errorf("store: edge quota exceeded")

// ErrPinned is returned when eviction or deletion would remove a stream a
// replay has pinned.
var ErrPinned = fmt.Errorf("store: stream pinned")

// Put stores an encoded stream under a camera key, failing when it does not
// fit the quota. PutEvict is the variant that reclaims space; Put never
// evicts.
func (s *EdgeStore) Put(camera string, buf *container.Buffer) error {
	_, err := s.putLocked(camera, buf, false)
	return err
}

// PutEvict stores an encoded stream, evicting other cameras' streams —
// oldest Put first, a deterministic order — until it fits. Pinned streams
// are never evicted: if the quota cannot be met without touching a pinned
// stream (or without evicting more than every other stream), nothing is
// evicted or stored and ErrQuotaExceeded is returned. The evicted camera
// keys are returned in eviction order.
func (s *EdgeStore) PutEvict(camera string, buf *container.Buffer) ([]string, error) {
	return s.putLocked(camera, buf, true)
}

func (s *EdgeStore) putLocked(camera string, buf *container.Buffer, evict bool) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	newSize := buf.Size()
	var oldSize int64
	if old, ok := s.videos[camera]; ok {
		if old.pins > 0 {
			return nil, fmt.Errorf("%w: cannot replace %q mid-replay", ErrPinned, camera)
		}
		oldSize = old.buf.Size()
	}
	need := s.used - oldSize + newSize
	var evicted []string
	if s.quota > 0 && need > s.quota {
		if !evict {
			return nil, fmt.Errorf("%w: need %d bytes, %d free",
				ErrQuotaExceeded, newSize, s.quota-(s.used-oldSize))
		}
		// Plan evictions oldest-first among unpinned streams (never the
		// target camera itself); apply only if the plan reaches the quota.
		type victim struct {
			cam  string
			size int64
			seq  int64
		}
		var victims []victim
		for cam, e := range s.videos {
			if cam == camera || e.pins > 0 {
				continue
			}
			victims = append(victims, victim{cam, e.buf.Size(), e.seq})
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
		for _, v := range victims {
			if need <= s.quota {
				break
			}
			need -= v.size
			evicted = append(evicted, v.cam)
		}
		if need > s.quota {
			return nil, fmt.Errorf("%w: need %d bytes, %d free after evicting all unpinned streams",
				ErrQuotaExceeded, newSize, s.quota-need+newSize)
		}
		for _, cam := range evicted {
			s.used -= s.videos[cam].buf.Size()
			delete(s.videos, cam)
		}
	}
	s.used += newSize - oldSize
	s.seq++
	s.videos[camera] = &edgeEntry{buf: buf, seq: s.seq}
	return evicted, nil
}

// Open returns a container reader over the stored stream.
func (s *EdgeStore) Open(camera string) (*container.Reader, error) {
	s.mu.RLock()
	e, ok := s.videos[camera]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: no video for camera %q", camera)
	}
	return container.NewReader(e.buf, e.buf.Size())
}

// Pin marks a camera's stream as in-use by a replay, excluding it from
// PutEvict eviction and Delete until the returned release function is
// called (once; further calls are no-ops). This is what keeps an open
// resume cursor valid while new recordings squeeze the quota: the replay
// pins the stream first, so a concurrent PutEvict can drop any stream but
// this one.
func (s *EdgeStore) Pin(camera string) (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.videos[camera]
	if !ok {
		return nil, fmt.Errorf("store: no video for camera %q", camera)
	}
	e.pins++
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			// The entry may have been replaced after release of all pins;
			// only decrement if this exact entry is still stored.
			if cur, ok := s.videos[camera]; ok && cur == e {
				e.pins--
			}
		})
	}, nil
}

// Delete removes a camera's stream, reclaiming quota. Deleting a pinned
// stream fails with ErrPinned; deleting an absent camera is a no-op.
func (s *EdgeStore) Delete(camera string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.videos[camera]
	if !ok {
		return nil
	}
	if e.pins > 0 {
		return fmt.Errorf("%w: cannot delete %q mid-replay", ErrPinned, camera)
	}
	s.used -= e.buf.Size()
	delete(s.videos, camera)
	return nil
}

// Used reports the bytes currently stored.
func (s *EdgeStore) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Cameras lists stored camera keys (sorted).
func (s *EdgeStore) Cameras() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.videos))
	for cam := range s.videos {
		out = append(out, cam)
	}
	sort.Strings(out)
	return out
}

// SeekEvent locates the GOP containing frame target in a stored stream: it
// returns the index of the latest I-frame at or before target, which is
// where further analysis (tracking, re-identification) starts decoding.
// This is the paper's "quickly seek the exact event/GOP" use case.
func (s *EdgeStore) SeekEvent(camera string, target int) (container.FrameMeta, error) {
	r, err := s.Open(camera)
	if err != nil {
		return container.FrameMeta{}, err
	}
	if target < 0 || target >= r.NumFrames() {
		return container.FrameMeta{}, fmt.Errorf("store: frame %d out of range [0,%d)", target, r.NumFrames())
	}
	best := container.FrameMeta{Index: -1}
	r.ScanMeta(func(m container.FrameMeta) bool {
		if m.Index > target {
			return false
		}
		if m.Type == codec.FrameI {
			best = m
		}
		return true
	})
	if best.Index < 0 {
		return container.FrameMeta{}, fmt.Errorf("store: no I-frame at or before %d", target)
	}
	return best, nil
}

// ResumeCursor summarises a stored stream for the ingest plane's
// reconnect-resume validation: the index of the last I-frame in the
// stream (-1 when the stream has none, which a well-formed SVF stream
// never does) and the total frame count. A RESUME token for a feed whose
// live session is gone is checked against this cursor — a token past the
// last stored I-frame points beyond what the edge retained, so the
// server rejects the resume instead of inventing history.
func (s *EdgeStore) ResumeCursor(camera string) (lastIFrame, frames int, err error) {
	r, err := s.Open(camera)
	if err != nil {
		return 0, 0, err
	}
	lastIFrame = -1
	r.ScanMeta(func(m container.FrameMeta) bool {
		if m.Type == codec.FrameI {
			lastIFrame = m.Index
		}
		return true
	})
	return lastIFrame, r.NumFrames(), nil
}

// ResumePoint picks the I-frame boundary a migrated feed restarts encoding
// at after its site crashed, given the cloud replica's applied cursor for
// the camera (its highest synced frame ID, -1 when none):
//
//   - the smallest stored I-frame strictly after applied, when one exists —
//     re-encoding from there regenerates exactly the detections the cloud
//     is missing;
//   - otherwise the last stored I-frame — the cloud already has everything
//     the edge retained, and the feed continues past the stored tail from
//     the most recent boundary (re-shipped detections are idempotent).
//
// Restarting at an *original* I-frame boundary is what keeps the re-encode
// byte-identical to the uninterrupted run: I-frame placement depends only
// on source frames from the boundary onward, so the healed stream's
// detections match the no-failure run's frame for frame.
func (s *EdgeStore) ResumePoint(camera string, applied int) (int, error) {
	r, err := s.Open(camera)
	if err != nil {
		return 0, err
	}
	best, last := -1, -1
	r.ScanMeta(func(m container.FrameMeta) bool {
		if m.Type != codec.FrameI {
			return true
		}
		last = m.Index
		if m.Index > applied && best < 0 {
			best = m.Index
		}
		return true
	})
	if best >= 0 {
		return best, nil
	}
	if last >= 0 {
		return last, nil
	}
	return 0, fmt.Errorf("store: no I-frame stored for camera %q", camera)
}
